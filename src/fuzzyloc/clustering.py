"""Seeded k-means (k-means++ init, Lloyd iteration) and elbow-based k selection.

Every fit goes through one Lloyd kernel, _lloyd, which advances a stack of
runs (the restarts of one k, or every k and restart of an elbow sweep) in
lockstep and gives each run the bits it would get on its own.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

MAX_ITERATIONS = 300
# run x point x cluster x dimension elements per lockstep group of Lloyd
# runs: 512 KiB per float64 temporary
_BLOCK_ELEMENTS = 2**16


class KMeansResult(NamedTuple):
    assignment: np.ndarray  # (n,) cluster index per point
    centroids: np.ndarray  # (k, dim)
    wcss_history: tuple  # WCSS after each Lloyd iteration of the winning restart


def wcss(points, assignment, centroids):
    """Within-cluster sum of squares: total squared distance to assigned centroids."""
    pts = np.asarray(points, dtype=float)
    cents = np.asarray(centroids, dtype=float)
    assignment = np.asarray(assignment)
    if len(assignment) != len(pts):
        raise InvalidInputError("one assignment per point required")
    return float(((pts - cents[assignment]) ** 2).sum())


def _kmeans_pp_init(pts, k, rng):
    n = len(pts)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            choice = rng.choice(n, p=probs)
        else:
            choice = rng.integers(n)
        centroids[i] = pts[choice]
        d2 = np.minimum(d2, ((pts - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _assign(pts, centroids):
    dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return dists.argmin(axis=1)


def _sequential_update(pts, centroids, assignment):
    """One run's centroid update, cluster by cluster.

    An empty cluster is re-seeded to the point farthest from its currently
    assigned centroid, then assignments are recomputed before the next
    cluster is updated. The lockstep kernel replays a run through this
    step in an iteration that leaves one of its clusters empty: no other
    order of operations gives the same bits.
    """
    centroids = centroids.copy()
    for c in range(len(centroids)):
        members = pts[assignment == c]
        if len(members):
            centroids[c] = members.mean(axis=0)
        else:
            worst = ((pts - centroids[assignment]) ** 2).sum(axis=1).argmax()
            centroids[c] = pts[worst]
            assignment = _assign(pts, centroids)
    return assignment, centroids


def _lloyd(pts, starts, ks, max_iterations=MAX_ITERATIONS):
    """Lloyd's algorithm for a stack of runs advanced in lockstep.

    starts is (runs, width, dim): run j starts from the centroids in its
    first ks[j] rows. Later rows are padding; they are set to +inf, so
    their distances are +inf and no point is ever assigned to them.
    A run stops when its assignment stops changing or after
    max_iterations, and then leaves the stack. Returns one KMeansResult
    per run, each with the bits a run on its own would give: distances
    and WCSS are the same numpy reductions over the same axes, and each
    centroid is its members' sum in point order (np.bincount adds rows in
    order, as members.mean(axis=0) does) divided by their count.
    """
    n, dim = pts.shape
    runs, width = starts.shape[:2]
    real = np.arange(width) < np.asarray(ks)[:, None]
    centroids = np.where(real[:, :, None], starts, np.inf)
    assignment = np.zeros((runs, n), dtype=np.intp)
    histories = [[] for _ in range(runs)]
    results = [None] * runs
    active = np.arange(runs)
    for iteration in range(max_iterations):
        live = len(active)
        before = centroids[active]
        rows = np.arange(live)[:, None]
        dists = np.empty((live, n, width))
        # a run too big for one block goes through in slices of points
        step = max(1, _BLOCK_ELEMENTS // before.size)
        for lo in range(0, n, step):
            diff = pts[None, lo : lo + step, None, :] - before[:, None]
            dists[:, lo : lo + step] = np.square(diff, out=diff).sum(axis=3)
        new = dists.argmin(axis=2)
        cells = rows * width + new
        counts = np.bincount(cells.ravel(), minlength=live * width).reshape(live, width, 1)
        sums = np.bincount(
            (cells[:, :, None] * dim + np.arange(dim)).ravel(),
            weights=np.broadcast_to(pts, (live, n, dim)).ravel(),
            minlength=before.size,
        ).reshape(before.shape)
        cents = np.where(counts > 0, sums / np.maximum(counts, 1), before)
        # with one dimension, members.mean(axis=0) sums pairwise rather than
        # in point order, so those runs take the sequential step every time
        replay = ((counts[:, :, 0] == 0) & real[active]).any(axis=1) | (dim == 1)
        for j in np.flatnonzero(replay):
            k = ks[active[j]]
            new[j], cents[j, :k] = _sequential_update(pts, before[j, :k], new[j])
        wcss_values = ((pts - cents[rows, new]) ** 2).sum(axis=(1, 2))
        if iteration == 0:
            done = np.zeros(live, dtype=bool)
        else:
            done = (new == assignment[active]).all(axis=1)
        if iteration == max_iterations - 1:
            done[:] = True
        assignment[active] = new
        centroids[active] = cents
        for j, run in enumerate(active):
            histories[run].append(float(wcss_values[j]))
            if done[j]:
                results[run] = KMeansResult(
                    new[j].copy(), cents[j, : ks[run]].copy(), tuple(histories[run])
                )
        active = active[~done]
        if not len(active):
            break
    return results


def _best_fits(pts, ks, seed, restarts):
    """The lowest-WCSS restart for every k in ks (ascending), in ks order.

    Restart r of every k starts from the first k centroids of one
    k-means++ draw of max(ks) centroids with restart r's seed: a draw of k
    makes the same random calls as the first k steps of a longer one, so
    every k starts where a fit of that k alone would. All k x restarts
    runs go through _lloyd in k order, in groups of at most
    _BLOCK_ELEMENTS run x point x cluster x dimension elements (at least
    one run each); ties keep the earlier restart.
    """
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    master = np.random.default_rng(seed)
    starts = [
        _kmeans_pp_init(pts, ks[-1], np.random.default_rng(master.integers(2**63)))
        for _ in range(restarts)
    ]
    groups, group = [], []
    for k in ks:
        for r in range(restarts):
            if group and (len(group) + 1) * pts.size * k > _BLOCK_ELEMENTS:
                groups.append(group)
                group = []
            group.append((k, r))
    groups.append(group)

    best = {}
    for group in groups:
        stack = np.zeros((len(group), group[-1][0], pts.shape[1]))
        for j, (k, r) in enumerate(group):
            stack[j, :k] = starts[r][:k]
        fits = _lloyd(pts, stack, [k for k, _ in group])
        for (k, _), fit in zip(group, fits):
            if k not in best or fit.wcss_history[-1] < best[k].wcss_history[-1]:
                best[k] = fit
    return [best[k] for k in ks]


def kmeans(points, k, seed, restarts=1):
    """Cluster points into k groups, deterministically for a given seed.

    restarts > 1 runs that many independently seeded k-means++ starts and
    keeps the lowest-WCSS result (restart seeds derive from the master
    seed, so the whole call stays deterministic).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise InvalidInputError("points must be a non-empty 2-D array")
    n = len(pts)
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
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
    if len(ws) == 1:
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


def elbow_fit(points, k_max, seed, restarts=5):
    """Pick a cluster count by the knee of the WCSS-versus-k curve.

    Fits every k in 1..k_max as kmeans(points, k, seed, restarts) would,
    in one sweep, and returns (k, fit): the knee of the curve and that
    k's fit, equal to what kmeans would return for it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInputError("points must be a 2-D array")
    if not 2 <= k_max <= len(pts):
        raise InvalidInputError(f"k_max must be in 2..{len(pts)}, got {k_max}")
    fits = _best_fits(pts, range(1, k_max + 1), seed, restarts)
    k = knee_point([fit.wcss_history[-1] for fit in fits])
    return k, fits[k - 1]


def elbow_k(points, k_max, seed, restarts=5):
    """The k that elbow_fit picks; fewer than 2 points short-circuit to 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInputError("points must be a 2-D array")
    if len(pts) < 2:
        return 1
    return elbow_fit(pts, k_max, seed, restarts)[0]
