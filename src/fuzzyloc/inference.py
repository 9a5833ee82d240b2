"""Prediction over a sparse rule base.

An observation is matched against every rule by per-dimension similarity,
fired through a min t-norm, and the rule consequents are blended into a
continuous output that is then snapped to the nearest label in the
universe. Because the blend can land between consequents, labels missing
from every rule are still reachable.

Every entry point runs the same numpy kernel over the rule base's arrays;
the scalar functions in fuzzy.py are the reference it is tested against.
"""

import bisect
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import DataError, InvalidInputError

# row x rule x dimension elements per kernel block: 128 KiB per float64 temporary
_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class Prediction:
    """One inference outcome.

    gamma is the continuous output in label units, label its nearest
    member of the rule base's label universe. When no rule fires at all
    (possible for far out-of-range inputs), fallback_used is True and
    gamma is the consequent of the nearest rule by representative
    distance; total_firing is 0 in that case.

    per_rule_firings is a read-only (R,) float64 view into the firing
    matrix of the call that produced the prediction, 8 bytes per rule
    rather than a Python float each. It is diagnostic and not part of
    equality, which compares the outcome fields.
    """

    gamma: float
    label: int
    total_firing: float
    fallback_used: bool
    per_rule_firings: Optional[np.ndarray] = field(default=None, compare=False)


def discretize(gamma, label_universe):
    """Nearest label in an ascending universe; exact midpoints go to the smaller label.

    Values beyond either end clip to the edge label.
    """
    if not label_universe:
        raise InvalidInputError("label universe is empty")
    i = bisect.bisect_left(label_universe, gamma)
    if i == 0:
        return int(label_universe[0])
    if i == len(label_universe):
        return int(label_universe[-1])
    below, above = label_universe[i - 1], label_universe[i]
    return int(below if gamma - below <= above - gamma else above)


def _vertex_means(triangles):
    # summed in the order of fuzzy.representative, so the bits agree
    return (triangles[..., 0] + triangles[..., 1] + triangles[..., 2]) / 3.0


def _firing_matrix(rb, obs):
    """Firing degree of every rule for every observation.

    obs holds normalized triangles of shape (N, D, 3), a crisp value being
    lo == mid == hi; the result has shape (N, R). Each element repeats
    fuzzy.similarity and the min of fuzzy.firing_degree operation for
    operation, so only np.exp against math.exp can move the last bit.
    Rows go through in blocks of at most _BLOCK_ELEMENTS elements (one row
    at least), which bounds every temporary at 128 KiB.
    """
    ants, reps = rb.antecedents, rb.representatives
    h, omega = rb.params.h, rb.params.omega
    obs_reps = _vertex_means(obs)
    out = np.empty((len(obs), len(reps)))
    step = max(1, _BLOCK_ELEMENTS // reps.size)
    for lo in range(0, len(obs), step):
        block = obs[lo:lo + step, None]
        # shape term 1 - (|gap1| + |gap2| + |gap3|) / 3, floored at 0
        shape = np.abs(block[..., 0] - ants[..., 0])
        shape += np.abs(block[..., 1] - ants[..., 1])
        shape += np.abs(block[..., 2] - ants[..., 2])
        shape /= 3.0
        np.subtract(1.0, shape, out=shape)
        np.maximum(shape, 0.0, out=shape)
        # distance factor 1 / (1 + exp(h*d - omega)); an overflowing exp gives 0
        factor = np.abs(obs_reps[lo:lo + step, None] - reps)
        factor *= h
        factor -= omega
        with np.errstate(over="ignore"):
            np.exp(factor, out=factor)
        factor += 1.0
        np.divide(1.0, factor, out=factor)
        shape *= factor
        np.minimum(shape, 1.0, out=shape)
        shape.min(axis=2, out=out[lo:lo + step])
    return out


def _normalized(rb, raw):
    """Normalized selected features of raw rows, as (N, D, 3) triangles.

    raw is (N, F) for crisp rows or (N, F, 3) for triangles, in the rule
    base's original feature order and raw units.
    """
    if raw.ndim == 2:
        raw = raw[..., None]
    # min-max is monotone, so normalizing each vertex keeps lo <= mid <= hi
    obs = rb.normalization.apply_matrix(raw.swapaxes(1, 2)).swapaxes(1, 2)
    obs = obs[:, rb.selected_features]
    if not np.isfinite(obs).all():
        finite = np.isfinite(obs).all(axis=(1, 2))
        raise InvalidInputError(
            f"observation {int(np.argmin(finite))} leaves the float range once normalized"
        )
    return obs if obs.shape[2] == 3 else np.repeat(obs, 3, axis=2)


def _check_finite(rb, raw, row_prefix):
    """Reject a raw (N, F) matrix with a non-finite cell, naming the first one.

    row_prefix is formatted with the row index to start the message.
    """
    if not np.isfinite(raw).all():
        i, j = np.argwhere(~np.isfinite(raw))[0]
        raise InvalidInputError(
            f"{row_prefix.format(i)}feature {rb.feature_names[j]!r} is not finite: {raw[i, j]}"
        )


def _predictions(rb, obs):
    """Yield one Prediction per normalized observation, in order."""
    firings = _firing_matrix(rb, obs)
    firings.flags.writeable = False
    consequents = rb.consequents.tolist()
    for i, row in enumerate(firings):
        weights = row.tolist()
        total = sum(weights)
        if total > 0.0:
            # fuzzy.aggregate's sums, in row order: the bits do not depend
            # on how many rows were predicted together
            gamma = sum(map(operator.mul, weights, consequents)) / total
            fallback_used = False
        else:
            # nothing fired; take the consequent of the closest rule by
            # representative distance (first one on ties) instead of
            # dividing by zero
            gaps = rb.representatives - _vertex_means(obs[i])
            gamma = consequents[int(np.argmin((gaps * gaps).sum(axis=1)))]
            fallback_used = True
        yield Prediction(
            gamma=float(gamma),
            label=discretize(gamma, rb.label_universe),
            total_firing=float(total),
            fallback_used=fallback_used,
            per_rule_firings=row,
        )


def _check_width(rb, n_features, what):
    if n_features != len(rb.feature_names):
        raise InvalidInputError(
            f"{what} has {n_features} features, rule base expects {len(rb.feature_names)}"
        )


def predict_fuzzy(rb, observation_sets):
    """Predict from one triangular fuzzy set per original feature (raw units)."""
    observation_sets = tuple(observation_sets)
    _check_width(rb, len(observation_sets), "observation")
    raw = np.array([[(s.a1, s.a2, s.a3) for s in observation_sets]], dtype=float)
    return next(_predictions(rb, _normalized(rb, raw)))


def predict(rb, raw_features):
    """Predict from one crisp feature vector in raw (pre-normalization) units."""
    values = np.asarray(raw_features, dtype=float)
    if values.ndim != 1:
        raise InvalidInputError(f"observation must be a flat vector, got shape {values.shape}")
    _check_width(rb, len(values), "observation")
    _check_finite(rb, values[None], "")
    return next(_predictions(rb, _normalized(rb, values[None])))


def predict_rows(rb, rows):
    """Predict every row of a raw (N, F) feature matrix.

    Returns an iterator of Predictions in row order; the firing matrix is
    computed on the first step, the Predictions one at a time after that.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidInputError(f"rows must form a 2-D matrix, got shape {rows.shape}")
    _check_width(rb, rows.shape[1], "each row")
    _check_finite(rb, rows, "row {}: ")
    return _predictions(rb, _normalized(rb, rows))


@dataclass(frozen=True)
class BatchEvaluation:
    """Predictions for a labeled dataset plus summary statistics.

    accuracy is the correct fraction (NaN when the dataset is empty, see
    no_instances); confusion is indexed [truth][predicted] over the rule
    base's label universe; mean_abs_error averages |gamma - truth|.
    """

    truths: tuple
    predictions: tuple
    label_universe: tuple
    accuracy: float
    confusion: tuple
    mean_abs_error: float
    fallback_count: int

    @property
    def n_instances(self):
        return len(self.predictions)

    @property
    def n_correct(self):
        return sum(1 for t, p in zip(self.truths, self.predictions) if p.label == t)

    @property
    def no_instances(self):
        return self.n_instances == 0


def predict_batch(rb, dataset: Dataset):
    """Predict every row of a raw labeled dataset and score the result.

    The dataset must carry the rule base's original feature columns (in
    order) in raw units; every truth label must belong to the rule base's
    label universe so the confusion matrix can count it.
    """
    if dataset.feature_names != rb.feature_names:
        raise InvalidInputError(
            f"dataset columns {dataset.feature_names} do not match "
            f"rule base features {rb.feature_names}"
        )

    universe = rb.label_universe
    position = {label: i for i, label in enumerate(universe)}
    confusion = [[0] * len(universe) for _ in universe]

    truths = [int(t) for t in dataset.labels]
    for i, truth in enumerate(truths):
        if truth not in position:
            raise DataError(f"instance {i}: truth label {truth} is outside the label universe")
    _check_finite(rb, dataset.features, "instance {}: ")
    predictions = list(_predictions(rb, _normalized(rb, dataset.features)))
    for truth, pred in zip(truths, predictions):
        confusion[position[truth]][position[pred.label]] += 1

    n = len(predictions)
    if n:
        accuracy = sum(1 for t, p in zip(truths, predictions) if p.label == t) / n
        mean_abs_error = sum(abs(p.gamma - t) for t, p in zip(truths, predictions)) / n
    else:
        accuracy = float("nan")
        mean_abs_error = float("nan")

    return BatchEvaluation(
        truths=tuple(truths),
        predictions=tuple(predictions),
        label_universe=universe,
        accuracy=accuracy,
        confusion=tuple(tuple(row) for row in confusion),
        mean_abs_error=mean_abs_error,
        fallback_count=sum(1 for p in predictions if p.fallback_used),
    )
