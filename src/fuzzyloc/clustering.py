"""Seeded k-means (k-means++ init, Lloyd iteration) and elbow-based k selection.

Every fit goes through one Lloyd kernel, _lloyd, which advances a stack of
runs (the restarts of one k, or every k and restart of an elbow sweep) in
lockstep and gives each run the bits it would get on its own.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .fuzzy import _integer, _seed

MAX_ITERATIONS = 300
# k-means++ restarts per k of an elbow sweep
DEFAULT_RESTARTS = 5
# restarts one kmeans call may ask for; each builds a generator and a run
MAX_RESTARTS = 1000
# run x point x max(cluster, dimension) elements per lockstep group of
# Lloyd runs: 512 KiB per float64 temporary
_BLOCK_ELEMENTS = 2**16
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class KMeansResult(NamedTuple):
    assignment: np.ndarray  # (n,) cluster index per point
    centroids: np.ndarray  # (k, dim)
    wcss: float  # wcss(points, assignment, centroids)


def wcss(points, assignment, centroids):
    """Within-cluster sum of squares: total squared distance to assigned centroids."""
    pts = np.asarray(points, dtype=float)
    cents = np.asarray(centroids, dtype=float)
    assignment = np.asarray(assignment)
    if len(assignment) != len(pts):
        raise InvalidInputError("one assignment per point required")
    return float(((pts - cents[assignment]) ** 2).sum())


def _points(points):
    """points as the (n, dim) float array every fit takes, or refused.

    The one check of a point set, made before any random call, so its
    answer does not depend on the seed, k or the restart count. The set
    must be a non-empty 2-D array with 32 n max|x|^2 finite. A centroid is
    a mean of points, so |c|^2 <= max|x|^2, and that bound keeps every
    later sum finite: squared distances (<= 4 max|x|^2), k-means++ totals
    and WCSS (<= 4 n max|x|^2), the coordinate sums of a centroid
    update, and _assign's screened distances and its rounding bound,
    whose |x|^2 + |c|^2 stays below max / 16.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise InvalidInputError("points must be a non-empty 2-D array")
    with np.errstate(over="ignore"):
        bound = 32 * len(pts) * np.square(pts).sum(axis=1).max()
    if not np.isfinite(bound):
        raise InvalidInputError(
            "points must be finite, with squared distances within the float range"
        )
    return pts


def _lower_to(d2, pts, cents):
    """Lower d2 (runs, n) in place to every point's squared distance to
    its run's centroid in cents (runs, dim), where that is less. Each
    distance is the reference's subtract, square and sum over a contiguous
    last axis, computed in slices of at most _BLOCK_ELEMENTS elements."""
    runs, n = d2.shape
    step = max(1, _BLOCK_ELEMENTS // (runs * pts.shape[1]))
    for lo in range(0, n, step):
        near = np.square(pts[lo : lo + step] - cents[:, None]).sum(axis=2)
        np.minimum(d2[:, lo : lo + step], near, out=d2[:, lo : lo + step])


def _kmeans_pp_init(pts, k, rngs):
    """k-means++ starts of k centroids for every generator in rngs, drawn
    together: (len(rngs), k, dim).

    Row r picks the points, and makes the random calls, of a draw of its
    own with rngs[r]: rng.integers(n) for the first centroid, then
    rng.choice(n, p=d2 / total) while the total of the squared distances
    d2 to the nearest centroid so far is > 0, else rng.integers(n). Once
    it has checked p, choice picks searchsorted(cdf, rng.random(),
    side="right") over cdf = cumsum(p) / its last entry. That cdf is
    non-decreasing, so the index is the count of its entries <= the
    draw, which is taken here for every row at once.

    choice also refused a p holding NaN or not summing to 1. Every total
    here is finite, since pts passed _points, so that refusal cannot bind.
    """
    n, dim = pts.shape
    starts = np.empty((len(rngs), k, dim))
    starts[:, 0] = pts[[rng.integers(n) for rng in rngs]]
    d2 = np.full((len(rngs), n), np.inf)
    _lower_to(d2, pts, starts[:, 0])
    totals = d2.sum(axis=1)
    # a row whose total is 0 divides 0 by 0: no warnings
    with np.errstate(invalid="ignore"):
        for i in range(1, k):
            positive = totals > 0.0
            u = np.array(
                [rng.random() if p else rng.integers(n) for rng, p in zip(rngs, positive.tolist())]
            )
            cdf = np.cumsum(d2 / totals[:, None], axis=1)
            cdf /= cdf[:, -1:]
            # a row whose total is 0 has a NaN cdf and took rng.integers(n)
            picks = np.where(positive, (cdf <= u[:, None]).sum(axis=1), u.astype(np.intp))
            starts[:, i] = pts[picks]
            if i < k - 1:
                _lower_to(d2, pts, starts[:, i])
                totals = d2.sum(axis=1)
    return starts


def _exact_dists(pts, cents):
    """Squared distances of m points to m centroid stacks, (m, dim) against
    (m, width, dim): the subtract, square and sum over a contiguous last
    axis that the scalar reference computes, so the bits are its bits."""
    return np.square(pts[:, None, :] - cents).sum(axis=2)


def _assign(pts, sq_norms, cents):
    """Index of each point's nearest real centroid, for a stack of runs.

    pts is (n, dim) with squared row norms sq_norms; cents is (runs,
    width, dim), where a padded slot holds +inf (see _lloyd) and a real
    one is finite. Returns (runs, n), equal to the first-index argmin of
    _exact_dists.

    Distances are first screened with one matrix product,
    |x|^2 - 2 x.c + |c|^2 (padded slots zeroed for the product, then
    +inf). That form differs from the exact one by less than
    8 (dim + 4) (eps (|x|^2 + max|c|^2) + tiny), a bound on the rounding
    of both, so wherever the best screened distance beats the second by
    more than twice the bound it is also the exact argmin. The other
    (run, point) pairs are recomputed exactly, which settles ties as the
    reference does. Points go through in slices of at most _BLOCK_ELEMENTS
    distances.
    """
    n, dim = pts.shape
    runs, width = cents.shape[:2]
    real = np.isfinite(cents[:, :, 0])
    flat = np.where(real[:, :, None], cents, 0.0).reshape(runs * width, dim)
    cc = np.square(flat).sum(axis=1)
    cmax = cc.reshape(runs, width).max(axis=1)[:, None]
    cc[~real.ravel()] = np.inf
    out = np.empty((runs, n), dtype=np.intp)
    step = max(1, _BLOCK_ELEMENTS // (runs * width))
    for lo in range(0, n, step):
        x, xx = pts[lo : lo + step], sq_norms[lo : lo + step]
        d = flat @ x.T
        d *= -2.0
        d += xx
        d += cc[:, None]
        d = d.reshape(runs, width, len(x))
        bound = 8 * (dim + 4) * (_EPS * (xx + cmax) + _TINY)
        near = d <= (d.min(axis=1) + 2 * bound)[:, None]
        # every slot within twice the bound of the minimum adds width + its
        # index, so the sum lies in [width, 2 width) when exactly one slot
        # does, and then names it; the minimum is always near, since every
        # value is finite for points that _points accepts
        code = np.arange(width, 2.0 * width) @ near
        best = code.astype(np.intp) - width
        j, i = np.nonzero(code >= 2 * width)
        chunk = max(1, _BLOCK_ELEMENTS // (width * dim))
        for at in range(0, len(i), chunk):
            ii, jj = i[at : at + chunk], j[at : at + chunk]
            best[jj, ii] = _exact_dists(x[ii], cents[jj]).argmin(axis=1)
        out[:, lo : lo + step] = best
    return out


def _sequential_update(pts, sq_norms, centroids, assignment):
    """One run's centroid update, cluster by cluster.

    An empty cluster is re-seeded to the point farthest from its currently
    assigned centroid, then assignments are recomputed before the next
    cluster is updated. The lockstep kernel replays a run through this
    step in an iteration that leaves one of its clusters empty: no other
    order of operations gives the same bits. A centroid is its members'
    sum in point order over their count, as in _lloyd.
    """
    centroids = centroids.copy()
    for c in range(len(centroids)):
        members = pts[assignment == c]
        if len(members):
            centroids[c] = np.add.accumulate(members, axis=0)[-1] / len(members)
        else:
            worst = ((pts - centroids[assignment]) ** 2).sum(axis=1).argmax()
            centroids[c] = pts[worst]
            assignment = _assign(pts, sq_norms, centroids[None])[0]
    return assignment, centroids


def _lloyd(pts, starts, ks):
    """Lloyd's algorithm for a stack of runs advanced in lockstep.

    starts is (runs, width, dim): run j starts from the centroids in its
    first ks[j] rows. Later rows are padding; they are set to +inf, so
    their distances are +inf and no point is ever assigned to them.
    A run stops when its assignment stops changing or after
    MAX_ITERATIONS, and then leaves the stack. Once the stack is empty
    every run's KMeansResult is built from its final assignments and
    centroids, copied out of the kernel's buffers so that no two results
    share memory, and their wcss. Each has the bits a run on its own would
    give: assignments are the exact argmin (see _assign), and each
    centroid is its members' sum in point order (np.bincount adds rows in
    order) divided by their count, in every dimension. Only an iteration
    that leaves a cluster empty replays the run through _sequential_update.
    """
    n, dim = pts.shape
    runs, width = starts.shape[:2]
    real = np.arange(width) < np.asarray(ks)[:, None]
    centroids = np.where(real[:, :, None], starts, np.inf)
    sq_norms = np.square(pts).sum(axis=1)
    # row d is coordinate d of every point once per run, in the order of cells
    weights = np.tile(pts.T, runs)
    # no assignment is -1, so no run stops after its first iteration
    assignment = np.full((runs, n), -1, dtype=np.intp)
    active = np.arange(runs)
    for _ in range(MAX_ITERATIONS):
        live = len(active)
        before = centroids[active]
        new = _assign(pts, sq_norms, before)
        cells = (np.arange(live)[:, None] * width + new).ravel()
        counts = np.bincount(cells, minlength=live * width).reshape(live, width, 1)
        sums = np.empty((dim, live * width))
        for d in range(dim):
            sums[d] = np.bincount(cells, weights=weights[d, : live * n], minlength=live * width)
        sums = sums.T.reshape(live, width, dim)
        cents = np.where(counts > 0, sums / np.maximum(counts, 1), before)
        replay = ((counts[:, :, 0] == 0) & real[active]).any(axis=1)
        for j in np.flatnonzero(replay):
            k = ks[active[j]]
            new[j], cents[j, :k] = _sequential_update(pts, sq_norms, before[j, :k], new[j])
        done = (new == assignment[active]).all(axis=1)
        assignment[active] = new
        centroids[active] = cents
        active = active[~done]
        if not len(active):
            break
    return [
        KMeansResult(a.copy(), c[:k].copy(), wcss(pts, a, c[:k]))
        for a, c, k in zip(assignment, centroids, ks)
    ]


def _best_fits(pts, ks, seed, restarts):
    """The lowest-WCSS restart for every k in ks (ascending), in ks order.

    Restart r of every k starts from the first k centroids of one
    k-means++ draw of max(ks) centroids with restart r's seed: a draw of k
    makes the same random calls as the first k steps of a longer one, so
    every k starts where a fit of that k alone would. The draws of all
    restarts are made together (see _kmeans_pp_init). All k x restarts
    runs go through _lloyd in k order, in groups of at most
    _BLOCK_ELEMENTS run x point x max(cluster, dimension) elements (at
    least one run each), which bounds the group's distance matrix and its
    (run, point, dimension) temporaries; ties keep the earlier restart.
    """
    master = np.random.default_rng(_seed(seed))
    rngs = [np.random.default_rng(s) for s in master.integers(2**63, size=restarts)]
    starts = _kmeans_pp_init(pts, ks[-1], rngs)
    dim = pts.shape[1]
    groups, group = [], []
    for k in ks:
        for r in range(restarts):
            if group and (len(group) + 1) * len(pts) * max(k, dim) > _BLOCK_ELEMENTS:
                groups.append(group)
                group = []
            group.append((k, r))
    groups.append(group)

    best = {}
    for group in groups:
        group_ks, group_restarts = zip(*group)
        # slots past a run's k are padding, which _lloyd sets to +inf
        fits = _lloyd(pts, starts[list(group_restarts), : group_ks[-1]], group_ks)
        for k, fit in zip(group_ks, fits):
            if k not in best or fit.wcss < best[k].wcss:
                best[k] = fit
    return [best[k] for k in ks]


def kmeans(points, k, seed, restarts=1):
    """Cluster points into k groups, deterministically for a given seed.

    restarts > 1 runs that many independently seeded k-means++ starts and
    keeps the lowest-WCSS result (restart seeds derive from the master
    seed, so the whole call stays deterministic), at most MAX_RESTARTS of
    them. Point sets that _points refuses are refused whatever the seed.
    """
    pts = _points(points)
    k = _integer(k, "k", 1, len(pts))
    restarts = _integer(restarts, "restarts", 1, MAX_RESTARTS)
    return _best_fits(pts, [k], seed, restarts)[0]


def knee_point(wcss_values):
    """Index of the curve knee: 1-based k with maximum perpendicular
    distance to the chord from the first to the last curve point.

    Ties resolve to the smaller k. The x axis is the cluster count
    1..len(wcss_values) with unit spacing.
    """
    ws = [float(w) for w in wcss_values]
    if not ws:
        raise InvalidInputError("empty WCSS curve")
    # every point of a curve of one or two lies on its chord
    if len(ws) <= 2:
        return 1
    x1, y1 = 1.0, ws[0]
    x2, y2 = float(len(ws)), ws[-1]
    denom = np.hypot(x2 - x1, y2 - y1)
    best_k, best_dist = 1, -1.0
    for i, w in enumerate(ws):
        x = float(i + 1)
        dist = abs((y2 - y1) * x - (x2 - x1) * w + x2 * y1 - y2 * x1) / denom
        if dist > best_dist:
            best_dist, best_k = dist, i + 1
    return best_k


def elbow_fit(points, k_max, seed):
    """Pick a cluster count by the knee of the WCSS-versus-k curve.

    Fits every k in 1..k_max (k_max in 1..n) as kmeans(points, k, seed,
    DEFAULT_RESTARTS) would, in one sweep, and returns (k, fit): the knee
    of the curve and that k's fit, equal to what kmeans would return for
    it. A sweep of one or two k picks k = 1 (see knee_point).
    """
    pts = _points(points)
    k_max = _integer(k_max, "k_max", 1, len(pts))
    fits = _best_fits(pts, range(1, k_max + 1), seed, DEFAULT_RESTARTS)
    k = knee_point([fit.wcss for fit in fits])
    return k, fits[k - 1]


def elbow_k(points, k_max, seed):
    """The k that elbow_fit picks."""
    return elbow_fit(points, k_max, seed)[0]
