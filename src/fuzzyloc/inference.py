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
from functools import cached_property
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import DataError, InvalidInputError
from .fuzzy import TriangularFuzzySet, vertex_means

# row x rule x dimension elements per kernel block: 128 KiB per float64 gap plane
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


# an overflow gives inf, which the shape floor and the distance factor turn
# into 0; rule vertex means are finite, so no inf - inf arises
@np.errstate(over="ignore")
def _firing_matrix(rb, obs):
    """Firing degree of every rule for every observation.

    obs holds normalized triangles of shape (N, D, 3), a crisp value being
    lo == mid == hi; the result has shape (N, R). Each element repeats
    fuzzy.similarity and the min of fuzzy.firing_degree operation for
    operation, so only np.exp against math.exp can move the last bit.

    The work follows the layout of rb.planes, the longer of the rule and
    dimension axes innermost. Rows go through in blocks of at most
    _BLOCK_ELEMENTS row-rule-dimension elements (one row at least), whose
    four gap planes (three vertices and the vertex mean) fill one buffer of
    at most 4 x 128 KiB that every block reuses. With the rules innermost,
    the min over dimensions is elementwise across (rows, R) slices.
    """
    planes, h, omega = rb.planes, rb.params.h, rb.params.omega
    rules_last = planes.shape[2] == rb.n_rules
    # (4, N, D): the three vertices and the vertex mean of every observation
    stacked = np.concatenate([obs, vertex_means(obs)[..., None]], axis=2).transpose(2, 0, 1)
    stacked = np.ascontiguousarray(stacked)
    stacked = stacked[..., None] if rules_last else stacked[:, :, None]
    out = np.empty((len(obs), rb.n_rules))
    step = max(1, _BLOCK_ELEMENTS // planes[0].size)
    gaps = np.empty((4, min(step, len(obs))) + planes.shape[1:])
    for lo in range(0, len(obs), step):
        block = gaps[:, :len(out) - lo]
        # spreading the rows over the buffer first, then subtracting a plane
        # that repeats per row, runs long inner loops where one broadcast
        # subtraction would run one per row and dimension
        np.copyto(block, stacked[:, lo:lo + step])
        np.subtract(block, planes[:, None], out=block)
        np.abs(block, out=block)
        shape, factor = block[0], block[3]
        # shape term 1 - (|gap1| + |gap2| + |gap3|) / 3, floored into [0, 1]
        shape += block[1]
        shape += block[2]
        shape /= 3.0
        np.subtract(1.0, shape, out=shape)
        np.maximum(shape, 0.0, out=shape)
        # distance factor 1 / (1 + exp(h*d - omega)) in [0, 1]; an overflowing exp
        # gives 0. The product of the two stays in [0, 1] and needs no clip to 1
        factor *= h
        factor -= omega
        np.exp(factor, out=factor)
        factor += 1.0
        np.divide(1.0, factor, out=factor)
        shape *= factor
        shape.min(axis=1 if rules_last else 2, out=out[lo:lo + step])
    return out


def _float_array(values, what):
    """values as a float64 array; a value numpy cannot read as a float is
    refused, naming its index and its type."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    # a ragged nesting reads as an array of sequences, refused by float() too
    cells = np.array(values, dtype=object)
    for index in np.ndindex(cells.shape):
        at = "".join(f"[{i}]" for i in index)
        try:
            float(cells[index])
        except OverflowError:  # an int beyond the float range
            raise InvalidInputError(f"{what}{at} is beyond the float range") from None
        except (TypeError, ValueError):
            kind = type(cells[index]).__name__
            raise InvalidInputError(f"{what}{at} is not a number (type {kind})") from None
    raise InvalidInputError(f"{what} cannot be read as an array of floats")


def _normalized(rb, raw, what, row_prefix=""):
    """Normalized selected features of raw rows, as (N, D, 3) triangles.

    raw is (N, F) for crisp rows or (N, F, 3) for triangles, in the rule
    base's original feature order and raw units. An F other than the rule
    base's feature count is refused, naming what holds the features. A
    value that is not finite, raw or once normalized, is refused, naming
    its feature and row (row_prefix formatted with the row index starts
    the message).
    """
    if raw.shape[1] != len(rb.feature_names):
        raise InvalidInputError(
            f"{what} has {raw.shape[1]} features, rule base expects {len(rb.feature_names)}"
        )
    if raw.ndim == 2:
        raw = raw[..., None]
    # min-max is monotone, so normalizing each vertex keeps lo <= mid <= hi
    with np.errstate(over="ignore"):
        obs = rb.normalization.apply_matrix(raw.swapaxes(1, 2)).swapaxes(1, 2)
    if not (np.isfinite(raw).all() and np.isfinite(obs).all()):
        i, j, v = np.argwhere(~(np.isfinite(raw) & np.isfinite(obs)))[0]
        raise InvalidInputError(
            f"{row_prefix.format(i)}feature {rb.feature_names[j]!r} is not finite "
            f"raw or once normalized: {raw[i, j, v]}"
        )
    obs = obs[:, rb.selected_features]
    return obs if obs.shape[2] == 3 else np.repeat(obs, 3, axis=2)


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
        else:
            # nothing fired; take the consequent of the closest rule by
            # representative distance (first one on ties) instead of
            # dividing by zero
            with np.errstate(over="ignore"):  # overflowing distances tie at inf
                gaps = rb.representatives - vertex_means(obs[i])
                gamma = consequents[int(np.argmin((gaps * gaps).sum(axis=1)))]
        yield Prediction(
            gamma=float(gamma),
            label=discretize(gamma, rb.label_universe),
            total_firing=float(total),
            fallback_used=not total > 0.0,
            per_rule_firings=row,
        )


def predict_fuzzy(rb, observation_sets):
    """Predict from one triangular fuzzy set per original feature (raw units)."""
    sets = list(observation_sets)
    for i, s in enumerate(sets):
        if not isinstance(s, TriangularFuzzySet):
            raise InvalidInputError(
                f"observation_sets[{i}] is not a TriangularFuzzySet (type {type(s).__name__})"
            )
    raw = np.array([[(s.a1, s.a2, s.a3) for s in sets]], dtype=float)
    return next(_predictions(rb, _normalized(rb, raw, "observation")))


def predict(rb, raw_features):
    """Predict from one crisp feature vector in raw (pre-normalization) units."""
    values = _float_array(raw_features, "observation")
    if values.ndim != 1:
        raise InvalidInputError(f"observation must be a flat vector, got shape {values.shape}")
    return next(_predictions(rb, _normalized(rb, values[None], "observation")))


def predict_rows(rb, rows):
    """Predict every row of a raw (N, F) feature matrix.

    Returns an iterator of Predictions in row order; the firing matrix is
    computed on the first step, the Predictions one at a time after that.
    """
    rows = _float_array(rows, "rows")
    if rows.ndim != 2:
        raise InvalidInputError(f"rows must form a 2-D matrix, got shape {rows.shape}")
    return _predictions(rb, _normalized(rb, rows, "each row", "row {}: "))


@dataclass(frozen=True)
class BatchEvaluation:
    """Truth labels and predictions of a labeled dataset, in row order.

    Every score derives from them. accuracy is the correct fraction and
    mean_abs_error averages |gamma - truth|, both NaN when the dataset is
    empty (see no_instances); confusion, indexed [truth][predicted] over
    the label universe, is built once, on first use.
    """

    truths: tuple
    predictions: tuple
    label_universe: tuple

    @property
    def n_instances(self):
        return len(self.predictions)

    @property
    def no_instances(self):
        return self.n_instances == 0

    def n_within(self, k):
        """How many predicted labels lie at most k from their truth."""
        return sum(1 for t, p in zip(self.truths, self.predictions) if abs(p.label - t) <= k)

    @property
    def n_correct(self):
        return self.n_within(0)

    @property
    def accuracy(self):
        return self.n_correct / self.n_instances if self.predictions else float("nan")

    @property
    def mean_abs_error(self):
        errors = [abs(p.gamma - t) for t, p in zip(self.truths, self.predictions)]
        return sum(errors) / len(errors) if errors else float("nan")

    @property
    def fallback_count(self):
        return sum(1 for p in self.predictions if p.fallback_used)

    @cached_property
    def confusion(self):
        position = {label: i for i, label in enumerate(self.label_universe)}
        counts = [[0] * len(position) for _ in position]
        for truth, pred in zip(self.truths, self.predictions):
            counts[position[truth]][position[pred.label]] += 1
        return tuple(map(tuple, counts))


def predict_batch(rb, dataset: Dataset):
    """Predict every row of a raw labeled dataset.

    The dataset must carry the rule base's original feature columns (in
    order) in raw units; every truth label must belong to the rule base's
    label universe so the confusion matrix can count it.
    """
    if dataset.normalization is not None:
        raise InvalidInputError(
            "prediction takes raw rows: the rule base normalizes them itself, "
            "so a normalized dataset would be normalized twice"
        )
    if dataset.feature_names != rb.feature_names:
        raise InvalidInputError(
            f"dataset columns {dataset.feature_names} do not match "
            f"rule base features {rb.feature_names}"
        )
    outside = np.flatnonzero(~np.isin(dataset.labels, rb.label_universe))
    if outside.size:
        i, truth = outside[0], dataset.labels[outside[0]]
        raise DataError(f"instance {i}: truth label {truth} is outside the label universe")
    obs = _normalized(rb, dataset.features, "each instance", "instance {}: ")
    return BatchEvaluation(
        truths=tuple(dataset.labels.tolist()),
        predictions=tuple(_predictions(rb, obs)),
        label_universe=rb.label_universe,
    )
