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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from numbers import Integral, Number
from operator import attrgetter

import numpy as np

from .data import Dataset, _plain_number, label_universe as universe_of
from .errors import DataError, InvalidInputError
from .fuzzy import TriangularFuzzySet, _finite_real, _fuzzy_set, _integer

# row x rule x dimension elements per kernel block: 128 KiB per float64 gap plane
_BLOCK_ELEMENTS = 16384
_VERTICES = attrgetter("a1", "a2", "a3")


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
    per_rule_firings: np.ndarray = field(compare=False)


@dataclass(frozen=True, eq=False)
class Predictions(Sequence):
    """The outcomes of one prediction call, one row per observation in order.

    gammas, labels and totals are the (N,) columns of Prediction's gamma,
    label and total_firing, firings the (N, R) firing matrix behind them;
    all are made read-only. Indexing gives Prediction objects with plain
    Python fields, and iteration reads its rows through indexing; a slice
    gives the Predictions of those rows, read-only views of these arrays.
    """

    gammas: np.ndarray
    labels: np.ndarray
    totals: np.ndarray
    firings: np.ndarray

    def __post_init__(self):
        for array in (self.gammas, self.labels, self.totals, self.firings):
            array.setflags(write=False)

    @property
    def fallback(self):
        """The (N,) fallback_used column: the rows where no rule fired."""
        return ~(self.totals > 0.0)

    def __len__(self):
        return len(self.gammas)

    def __getitem__(self, i):
        if type(i) is not int:
            if isinstance(i, slice):
                return Predictions(self.gammas[i], self.labels[i], self.totals[i], self.firings[i])
            if isinstance(i, bool) or not isinstance(i, Integral):
                kind = type(i).__name__
                raise TypeError(f"Predictions indices must be integers or slices, not {kind}")
        return _prediction(self.gammas, self.labels, self.totals, self.firings, i)

    def columns(self):
        """gammas, labels, totals and fallback as lists of Python values."""
        return self.gammas.tolist(), self.labels.tolist(), self.totals.tolist(), self.fallback.tolist()


def _prediction(gammas, labels, totals, firings, i):
    """Row i of the Predictions columns as a Prediction of Python values;
    its per_rule_firings is a view of firings, read-only when firings is."""
    gamma, label, total = gammas.item(i), labels.item(i), totals.item(i)
    return Prediction(gamma, label, total, not total > 0.0, firings[i])


def discretize(gamma, label_universe):
    """Nearest label in an ascending universe; exact midpoints go to the smaller label.

    Values beyond either end clip to the edge label. gamma must be a
    finite real, and label_universe a universe data.label_universe accepts
    (InvalidInputError otherwise). Its labels lie in LABEL_RANGE, so the
    midpoint of two neighbours is exact and gamma above it goes up.
    """
    gamma = _finite_real(gamma, "gamma")
    universe = universe_of((), label_universe)
    i = bisect.bisect_left(universe, gamma)
    if i == 0:
        return universe[0]
    if i == len(universe):
        return universe[-1]
    below, above = universe[i - 1], universe[i]
    return below if gamma <= (below + above) / 2 else above


def _firing_matrix(rb, stacked):
    """Firing degree of every rule for every observation, under
    np.errstate(over="ignore") as _outcomes holds it: an overflow gives
    inf, which the shape floor and the distance factor turn into 0; rule
    vertex means are finite, so no inf - inf arises.

    stacked holds the normalized observations as _observations gives
    them, shape (4, N, D): the three vertices and the vertex mean of every
    row and selected feature; the result has shape (N, R). Each element repeats
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
    n_rows = stacked.shape[1]
    stacked = stacked[..., None] if rules_last else stacked[:, :, None]
    out = np.empty((n_rows, rb.n_rules))
    step = max(1, _BLOCK_ELEMENTS // planes[0].size)
    gaps = np.empty((4, min(step, n_rows)) + planes.shape[1:])
    for lo in range(0, n_rows, step):
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
    """values as a float64 array. A cell is read when it is a number
    (numbers.Number) other than a bool that float() reads, or text that
    the CSV reader reads (data._plain_number: no non-ASCII digits, no "_"
    separators). Any other cell is refused, naming its index and its type:
    float() would also read bytes, bytearray and other buffers as text that
    no check sees, and a bool as 1.0 or 0.0."""
    try:
        array = np.asarray(values)
        # a numeric ndarray holds no bool, but np.asarray reads a bool among
        # numbers as 1 or 0, so a sequence holding either is checked below
        if array.dtype.kind in "iuf" and (
            isinstance(values, np.ndarray) or not ((array == 0) | (array == 1)).any()
        ):
            return array.astype(float, copy=False)
    except ValueError:  # a ragged nesting, whose sequence cells float() refuses below
        pass
    # text or other objects: each cell as the CSV reader reads a number
    cells = np.array(values, dtype=object)
    for index in np.ndindex(cells.shape):
        at, cell = "".join(f"[{i}]" for i in index), cells[index]
        try:
            number = isinstance(cell, Number) and not isinstance(cell, bool)
            if not (number or isinstance(cell, str) and _plain_number(cell)):
                raise ValueError(cell)
            float(cell)
        except OverflowError:  # an int beyond the float range
            raise InvalidInputError(f"{what}{at} is beyond the float range") from None
        except (TypeError, ValueError):
            kind = type(cell).__name__
            raise InvalidInputError(f"{what}{at} is not a number (type {kind})") from None
    return cells.astype(float)


def _observations(rb, raw, what, row_prefix=""):
    """The kernel's stacked observations of raw rows, shape (4, N, D): the
    three vertices and the vertex mean of every normalized selected feature.

    raw is (N, F) for crisp rows or (N, F, 3) for triangles, in the rule
    base's original feature order and raw units. An F other than the rule
    base's feature count is refused, naming what holds the features. A
    value that is not finite, raw or once normalized, is refused, naming
    its feature and row (row_prefix formatted with the row index starts
    the message). Runs under _outcomes' np.errstate, where an overflow
    gives inf, refused here. Crisp rows stay (N, F) throughout: their three
    vertices are the normalized values o and their mean (o + o + o) / 3,
    the bits vertex_means gives the triangle (o, o, o).
    """
    if raw.shape[1] != len(rb.feature_names):
        raise InvalidInputError(f"{what} has {raw.shape[1]} features, "
                                f"rule base expects {len(rb.feature_names)}")
    # vertices first, features last; min-max is monotone, so normalizing
    # each vertex keeps lo <= mid <= hi
    values = raw if raw.ndim == 2 else raw.transpose(2, 0, 1)
    obs = rb.normalization.apply_matrix(values)
    # a non-finite raw value stays non-finite once normalized, unless its
    # feature is constant and normalizes to 0
    constant = rb.serving.constant
    if not (np.isfinite(obs).all()
            and (constant is None or np.isfinite(values[..., constant]).all())):
        norm = obs if raw.ndim == 2 else obs.transpose(1, 2, 0)
        at = tuple(np.argwhere(~(np.isfinite(raw) & np.isfinite(norm)))[0])
        raise InvalidInputError(f"{row_prefix.format(at[0])}feature {rb.feature_names[at[1]]!r} "
                                f"is not finite raw or once normalized: {raw[at]}")
    selected = rb.serving.selected
    vertices = obs if selected is None else obs[..., selected]
    stacked = np.empty((4,) + vertices.shape[-2:])
    stacked[:3] = vertices  # a crisp (N, D) matrix fills all three
    mean = stacked[3]
    np.add(stacked[0], stacked[1], out=mean)
    mean += stacked[2]
    mean /= 3.0
    return stacked


def _nearest_labels(gammas, serving):
    """discretize of every gamma (finite, as each is) over the rule base's
    label universe, read from its Serving arrays: the labels as an int64
    array, each the one past every threshold at or below its gamma (see
    rulebase._thresholds)."""
    return serving.labels.take(serving.thresholds.searchsorted(gammas, side="right"))


# over: see _firing_matrix and _observations, and an overflowing fallback
# distance gives inf, which ties far rules; invalid: a row that fired
# nothing divides 0 by 0, and the NaN is replaced
@np.errstate(over="ignore", invalid="ignore")
def _outcomes(rb, raw, what, row_prefix=""):
    """The (N,) gammas, labels and totals and the (N, R) firings of raw
    rows, in order; raw, what and row_prefix are _observations'.

    Each row's total and weighted sum run left to right over the rules
    (np.add.accumulate), the order of fuzzy.aggregate, so the bits depend
    neither on the interpreter's sum() nor on how many rows are predicted
    together. A row where nothing fired takes the consequent of the
    closest rule by representative distance (first one on ties) instead.
    """
    stacked = _observations(rb, raw, what, row_prefix)
    firings = _firing_matrix(rb, stacked)
    # copying the totals frees their running sums, and the weighted sums run in
    # place, so at most one (N, R) array joins the firing matrix
    totals = np.add.accumulate(firings, axis=1)[:, -1].copy()
    weighted = firings * rb.consequents
    gammas = np.add.accumulate(weighted, axis=1, out=weighted)[:, -1] / totals
    # firings lie in [0, 1], so a total is 0 where nothing fired and positive elsewhere
    if np.count_nonzero(totals) < len(totals):
        unfired = np.flatnonzero(totals == 0.0)
        reps = rb.representatives
        step = max(1, _BLOCK_ELEMENTS // reps.size)
        for lo in range(0, len(unfired), step):
            rows = unfired[lo:lo + step]
            gaps = reps - stacked[3, rows, None]
            # each contiguous (D,) row sums as a lone (R, D) array's rows would
            gammas[rows] = rb.consequents[np.argmin((gaps * gaps).sum(axis=2), axis=1)]
    return gammas, _nearest_labels(gammas, rb.serving), totals, firings


def _first(outcomes):
    """The Prediction of the one row of _outcomes' arrays."""
    firings = outcomes[3]
    firings.flags.writeable = False
    return _prediction(*outcomes, 0)


def predict_fuzzy(rb, observation_sets):
    """Predict from one triangular fuzzy set per original feature (raw units)."""
    sets = list(observation_sets)
    # one pass over the types; only a subclass or a refusal checks set by set,
    # and _fuzzy_set is reached only to word the refusal
    if not set(map(type, sets)) <= {TriangularFuzzySet}:
        for i, s in enumerate(sets):
            if not isinstance(s, TriangularFuzzySet):
                _fuzzy_set(s, f"observation_sets[{i}]")
    raw = np.fromiter(chain.from_iterable(map(_VERTICES, sets)), float, 3 * len(sets))
    return _first(_outcomes(rb, raw.reshape(1, len(sets), 3), "observation"))


def predict(rb, raw_features):
    """Predict from one crisp feature vector in raw (pre-normalization) units."""
    values = _float_array(raw_features, "observation")
    if values.ndim != 1:
        raise InvalidInputError(f"observation must be a flat vector, got shape {values.shape}")
    return _first(_outcomes(rb, values[None], "observation"))


def predict_rows(rb, rows):
    """Predict every row of a raw (N, F) feature matrix, as Predictions in row order."""
    rows = _float_array(rows, "rows")
    if rows.ndim != 2:
        raise InvalidInputError(f"rows must form a 2-D matrix, got shape {rows.shape}")
    return Predictions(*_outcomes(rb, rows, "each row", "row {}: "))


@dataclass(frozen=True)
class BatchEvaluation:
    """Truth labels and the Predictions of a labeled dataset, in row order.

    Every score is an array expression over them, and every truth and
    predicted label belongs to the ascending label_universe. accuracy is
    the correct fraction and mean_abs_error averages |gamma - truth| (a
    left-to-right running sum), both NaN when the dataset is empty (see
    no_instances); confusion, indexed [truth][predicted] over the label
    universe, is built once, on first use.
    """

    truths: tuple
    predictions: Predictions
    label_universe: tuple

    @cached_property
    def _truth_labels(self):
        return np.array(self.truths, dtype=np.int64)

    @property
    def n_instances(self):
        return len(self.predictions)

    @property
    def no_instances(self):
        return self.n_instances == 0

    def n_within(self, k):
        """How many predicted labels lie at most k from their truth, for
        an integer k >= 0."""
        k = _integer(k, "k", 0)
        # labels lie in LABEL_RANGE, so no int64 difference of two wraps
        gaps = np.abs(self.predictions.labels - self._truth_labels)
        return int(np.count_nonzero(gaps <= k))

    @property
    def n_correct(self):
        return self.n_within(0)

    @property
    def accuracy(self):
        return self.n_correct / self.n_instances if self.n_instances else float("nan")

    @property
    def mean_abs_error(self):
        errors = np.add.accumulate(np.abs(self.predictions.gammas - self._truth_labels))
        return errors[-1].item() / self.n_instances if self.n_instances else float("nan")

    @property
    def fallback_count(self):
        return int(np.count_nonzero(self.predictions.fallback))

    @cached_property
    def confusion(self):
        universe, n = np.array(self.label_universe, dtype=np.int64), len(self.label_universe)
        cells = np.searchsorted(universe, self._truth_labels) * n
        cells += np.searchsorted(universe, self.predictions.labels)
        return tuple(map(tuple, np.bincount(cells, minlength=n * n).reshape(n, n).tolist()))


def predict_batch(rb, dataset: Dataset):
    """Predict every row of a raw labeled dataset.

    The dataset must carry the rule base's original feature columns (in
    order) in raw units; every truth label must belong to the rule base's
    label universe so the confusion matrix can count it.
    """
    if dataset.normalization is not None:
        raise InvalidInputError("prediction takes raw rows: the rule base normalizes them "
                                "itself, so a normalized dataset would be normalized twice")
    if dataset.feature_names != rb.feature_names:
        raise InvalidInputError(f"dataset columns {dataset.feature_names} do not match "
                                f"rule base features {rb.feature_names}")
    outside = np.flatnonzero(~np.isin(dataset.labels, rb.label_universe))
    if outside.size:
        i, truth = outside[0], dataset.labels[outside[0]]
        raise DataError(f"instance {i}: truth label {truth} is outside the label universe")
    predictions = Predictions(*_outcomes(rb, dataset.features, "each instance", "instance {}: "))
    return BatchEvaluation(tuple(dataset.labels.tolist()), predictions, rb.label_universe)
