"""Curvature-based feature scoring, ranking and selection.

Each feature column is read as a planar polyline of points
(instance index, normalized value) with unit index spacing. The mean
Menger curvature over its consecutive point triples measures how strongly
the column bends; flat or linearly drifting columns score 0, oscillating
ones score high. Features are ranked by that score and selected either by
a score threshold or by keeping the top n.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .fuzzy import _finite_real, _integer

# elements per temporary of the whole-matrix curvature kernel: 256 KiB
_BLOCK_ELEMENTS = 2**15


def menger_curvature(p, q, r):
    """Curvature 1/R of the circle through three planar points.

    Parameters
    ----------
    p, q, r : pairs (x, y)
        Three points in sequence order; q is the middle point.

    Returns
    -------
    float
        The reciprocal circumradius 2*sin(angle at q) / |pr|, or 0.0 when
        the points are collinear or any two coincide (the infinite-radius
        limit).

    Notes
    -----
    The sine is taken from the cross product of the two edge vectors,
    which avoids inverse-trig roundoff; the expression used is
    2*|cross| / (|pq| * |qr| * |pr|). Each point must be a pair of
    finite reals; InvalidInputError names the point or coordinate that
    is not.
    """
    return _menger(*_point(p, "p"), *_point(q, "q"), *_point(r, "r"))


def _menger(px, py, qx, qy, rx, ry):
    """menger_curvature of three points given as finite coordinates."""
    dx1 = qx - px
    dy1 = qy - py
    dx2 = rx - qx
    dy2 = ry - qy
    cross = dx1 * dy2 - dy1 * dx2
    lpq = math.hypot(dx1, dy1)
    lqr = math.hypot(dx2, dy2)
    lpr = math.hypot(rx - px, ry - py)
    product = lpq * lqr * lpr
    if 0.0 < product < float("inf"):
        return 2.0 * abs(cross) / product  # 0.0 for collinear points
    # points coincide, or the product (and perhaps the cross product) under-
    # or overflowed. Curvature scales as 1 / size: divide the gaps by the
    # largest (halving the points first if it overflows), so the longest
    # edge is at least 1 and no quotient below leaves the range
    scale = max(map(abs, (dx1, dy1, dx2, dy2))) or 1.0  # 0: all points coincide
    if scale == float("inf"):
        return _menger(*(v / 2 for v in (px, py, qx, qy, rx, ry))) / 2
    u1, v1, u2, v2 = dx1 / scale, dy1 / scale, dx2 / scale, dy2 / scale
    cross = u1 * v2 - v1 * u2
    lengths = math.hypot(u1, v1) * math.hypot(u2, v2), math.hypot(u1 + u2, v1 + v2)
    return 0.0 if cross == 0.0 else 2.0 * abs(cross) / lengths[0] / lengths[1] / scale


def _point(point, what):
    """point as a pair of _finite_real coordinates, named what[0] and what[1]."""
    try:
        x, y = point
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} is not a pair (x, y)") from None
    return _finite_real(x, f"{what}[0]"), _finite_real(y, f"{what}[1]")


def feature_curvature(values):
    """Mean Menger curvature of one feature's (index, value) polyline.

    values are the normalized samples of the feature in dataset order; at
    least 3 are required. Point j sits at (j, values[j]), so all features
    share the same x scale and their scores are comparable. Every value
    must be a finite real; InvalidInputError names the first that is not.
    """
    vals = [float(_finite_real(v, f"values[{j}]")) for j, v in enumerate(values)]
    m = len(vals)
    if m < 3:
        raise InsufficientDataError(f"curvature needs at least 3 samples, got {m}")
    total = 0.0
    for j in range(1, m - 1):
        total += _menger(float(j - 1), vals[j - 1], float(j), vals[j], float(j + 1), vals[j + 1])
    return total / (m - 2)


def _column_curvatures(values, sort_values):
    """feature_curvature of every column of an (m, n) array, in blocks of
    columns that keep each temporary within _BLOCK_ELEMENTS elements.

    The same per-triple arithmetic with dx = 1, so cross = dy2 - dy1,
    except that np.hypot may differ from math.hypot by an ulp. With dx = 1
    every edge is at least 1, so the edge lengths multiply to at least 2:
    the product never underflows, menger_curvature's rescaling is never
    needed, and a collinear triple (cross == 0) scores 0 without a branch.
    Each column's triples are added in row order, as feature_curvature adds
    them: a running sum, because a reduction down a single column would sum
    pairwise.
    """
    m, n = values.shape
    step = max(1, _BLOCK_ELEMENTS // m)
    scores = np.empty(n)
    for lo in range(0, n, step):
        v = values[:, lo : lo + step]
        if sort_values:
            v = np.sort(v, axis=0)
        dy = np.diff(v, axis=0)
        # |qr| of triple j is |pq| of triple j + 1
        edges = np.hypot(1.0, dy)
        lengths = edges[:-1] * edges[1:]
        lengths *= np.hypot(2.0, v[2:] - v[:-2])
        kappa = 2.0 * np.abs(dy[1:] - dy[:-1]) / lengths
        scores[lo : lo + step] = np.add.accumulate(kappa, axis=0)[-1] / (m - 2)
    return scores


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature curvature scores with ordinal ranks and selection mask.

    ranks are a permutation of 1..n_features, rank 1 being the highest
    score; ties rank by ascending feature index. Exactly one of top_n /
    epsilon describes the selection rule that produced the mask.
    """

    scores: tuple
    ranks: tuple
    selected: tuple
    top_n: Optional[int] = None
    epsilon: Optional[float] = None
    sorted_panels: bool = False

    def selected_indices(self):
        """Indices of the selected features, ascending."""
        return tuple(i for i, keep in enumerate(self.selected) if keep)


def rank_features(dataset, top_n=None, epsilon=None, sort_values=False):
    """Score every feature of a normalized dataset and apply a selection rule.

    Exactly one of top_n (keep the n best-ranked features) or epsilon
    (keep features scoring strictly above the threshold) must be given.
    sort_values=True scores each column in ascending value order instead
    of dataset order.
    """
    if dataset.normalization is None:
        raise InvalidInputError("feature ranking requires a min-max normalized dataset")
    if (top_n is None) == (epsilon is None):
        raise InvalidInputError("exactly one of top_n / epsilon must be given")
    n_features = dataset.n_features
    if dataset.n_instances < 3:
        raise InsufficientDataError(
            f"feature ranking needs at least 3 instances, got {dataset.n_instances}"
        )
    if top_n is not None:
        top_n = _integer(top_n, "top_n", 1, n_features)
    if epsilon is not None:
        epsilon = _finite_real(epsilon, "epsilon")

    scores = _column_curvatures(dataset.features, sort_values).tolist()

    order = sorted(range(n_features), key=lambda i: (-scores[i], i))
    ranks = [0] * n_features
    for position, i in enumerate(order):
        ranks[i] = position + 1

    if top_n is not None:
        selected = [ranks[i] <= top_n for i in range(n_features)]
    else:
        selected = [scores[i] > epsilon for i in range(n_features)]

    return FeatureRanking(
        scores=tuple(scores),
        ranks=tuple(ranks),
        selected=tuple(selected),
        top_n=top_n,
        epsilon=epsilon,
        sorted_panels=bool(sort_values),
    )
