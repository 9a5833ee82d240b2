"""Seeded k-means (k-means++ init, Lloyd iteration) and elbow-based k selection.

Every fit goes through one Lloyd kernel, _lloyd, which advances a stack of
runs (the restarts of one k, or every k and restart of the elbow sweeps of
several point sets) in lockstep and gives each run the bits it would get
on its own.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .fuzzy import INT64_MAX, _finite_real, _integer, _seed

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
    """Within-cluster sum of squares: total squared distance to assigned centroids.

    One run is points (n, dim), assignment (n,) and centroids (k, dim), and
    gives a float. A stack of runs adds a leading run axis to all three and
    gives one total per run. Each total is the run's squared differences
    summed over its contiguous (point, dim) block, the bits of
    ((points - centroids[assignment]) ** 2).sum() for that run alone.
    """
    pts = np.asarray(points, dtype=float)
    cents = np.asarray(centroids, dtype=float)
    assignment = np.asarray(assignment)
    # shape[::-2] is the dimension, then a stack's run count
    if pts.ndim not in (2, 3) or cents.ndim != pts.ndim or cents.shape[::-2] != pts.shape[::-2]:
        raise InvalidInputError("points and centroids must share their dimension and run count")
    if assignment.shape != pts.shape[:-1]:
        raise InvalidInputError("one assignment per point required")
    k, dim = cents.shape[-2:]
    if assignment.dtype.kind not in "iu" or not ((assignment >= 0) & (assignment < k)).all():
        raise InvalidInputError(f"assignment must hold integer cluster indices in 0..{k - 1}")
    runs = len(pts) if pts.ndim == 3 else 1
    cells = np.arange(runs)[:, None] * k + assignment.reshape(runs, -1).astype(np.intp)
    diff = cents.reshape(-1, dim).take(cells.ravel(), axis=0)
    np.subtract(pts.reshape(-1, dim), diff, out=diff)
    np.square(diff, out=diff)
    totals = diff.reshape(runs, -1).sum(axis=1)
    return totals if pts.ndim == 3 else float(totals[0])


class _Sets(NamedTuple):
    """Point sets of one dimension, padded to the longest with zero points."""

    rows: np.ndarray  # (S, n, dim): set s's points are its first sizes[s] rows
    # (dim, S, n): rows with coordinates first, held beside rows because a
    # group's gather from it, cols[:, :, :n].take(owner, axis=1), is C-contiguous
    # for _assign's products and the bincount sums; the same block gathered
    # from rows is strided, and training on a 40-room, 24-beacon building
    # took 19-29% longer with it, for 0.7 MB saved. The sums part holds for
    # stacked groups only: a lone run sums over its own rows (see _lloyd)
    cols: np.ndarray
    sq_norms: np.ndarray  # (S, n) squared point norms, +inf for padding
    sizes: np.ndarray  # (S,) points per set


def _pad(point_sets):
    """point_sets, a list of (n_i, dim) arrays, as _Sets."""
    sizes = np.array([len(pts) for pts in point_sets])
    rows = np.zeros((len(point_sets), sizes.max(), point_sets[0].shape[1]))
    for s, pts in enumerate(point_sets):
        rows[s, : len(pts)] = pts
    padding = np.arange(rows.shape[1]) >= sizes[:, None]
    sq_norms = np.where(padding, np.inf, np.square(rows).sum(axis=2))
    return _Sets(rows, np.ascontiguousarray(rows.transpose(2, 0, 1)), sq_norms, sizes)


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


def _lower_to(d2, rows, owner, cents):
    """Lower d2 (draws, n) in place to every point's squared distance to
    its draw's centroid in cents (draws, dim), where that is less; draw r
    measures the points of rows[owner[r]]. Each distance is the
    reference's subtract, square and sum over a contiguous last axis,
    computed in slices of at most _BLOCK_ELEMENTS elements."""
    draws, n = d2.shape
    step = max(1, _BLOCK_ELEMENTS // (draws * rows.shape[2]))
    for lo in range(0, n, step):
        diff = rows[owner, lo : lo + step]
        diff -= cents[:, None]
        np.square(diff, out=diff)
        np.minimum(d2[:, lo : lo + step], diff.sum(axis=2), out=d2[:, lo : lo + step])
        del diff  # before the next slice is gathered


def _by_size(sizes, total):
    """One float per row, from total(rows, n) over the rows of each
    distinct size n in sizes: summed only with rows of its own size, a
    row's first n entries add pairwise as they would alone."""
    totals = np.empty(len(sizes))
    for n in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == n)
        totals[rows] = total(rows, n)
    return totals


def _kmeans_pp_init(sets, owner, lengths, rngs):
    """k-means++ starts for every generator in rngs, drawn together:
    (len(rngs), max(lengths), dim).

    Draw r picks lengths[r] centroids with rngs[r], as a draw of its own
    would, from the n = sets.sizes[owner[r]] points of set owner[r] of the
    _Sets sets: rng.integers(n) for the first centroid, then
    rng.choice(n, p=d2 / total) while the total of the squared distances
    d2 to the nearest centroid so far is > 0, else rng.integers(n). Once
    it has checked p, choice picks searchsorted(cdf, rng.random(),
    side="right") over cdf = cumsum(p) / its last entry. That cdf is
    non-decreasing, so the index is the count of its entries <= the
    draw, which is taken here for every draw at once. A padded point has
    d2 = 0: it adds nothing to a total, and its cdf entry is the last
    real one, 1, which no rng.random() reaches, so it is never picked.
    Slots past a draw's length stay 0.

    choice also refused a p holding NaN or not summing to 1. Every total
    here is finite, since the sets passed _points, so that refusal cannot
    bind.
    """
    n = sets.sizes[owner]
    k = max(lengths)
    starts = np.zeros((len(rngs), k, sets.rows.shape[2]))
    starts[:, 0] = sets.rows[owner, [rng.integers(m) for rng, m in zip(rngs, n.tolist())]]
    d2 = np.where(np.isfinite(sets.sq_norms[owner]), np.inf, 0.0)
    # a draw whose total is 0 divides 0 by 0: no warnings
    with np.errstate(invalid="ignore"):
        for i in range(1, k):
            _lower_to(d2, sets.rows, owner, starts[:, i - 1])
            totals = _by_size(n, lambda rows, m: d2[rows, :m].sum(axis=1))
            going = np.flatnonzero(lengths > i)
            positive = totals[going] > 0.0
            u = np.array([
                rngs[r].random() if p else rngs[r].integers(m)
                for r, p, m in zip(going.tolist(), positive.tolist(), n[going].tolist())
            ])
            cdf = np.cumsum(d2[going] / totals[going, None], axis=1)
            cdf /= cdf[:, -1:]
            # a draw whose total is 0 has a NaN cdf and took rng.integers(n)
            picks = np.where(positive, (cdf <= u[:, None]).sum(axis=1), u.astype(np.intp))
            starts[going, i] = sets.rows[owner[going], picks]
    return starts


def _exact_dists(pts, cents):
    """Squared distances of m points to m centroid stacks, (m, dim) against
    (m, width, dim): the subtract, square and sum over a contiguous last
    axis that the scalar reference computes, so the bits are its bits."""
    return np.square(pts[:, None, :] - cents).sum(axis=2)


def _assign(cols, sq_norms, cents):
    """Index of each point's nearest real centroid, for a stack of runs.

    cols is (dim, runs, n), row d holding coordinate d of each run's
    points, with squared norms sq_norms (runs, n); cents is (runs, width,
    dim), where a padded slot holds +inf (see _lloyd) and a real one is
    finite. Returns (runs, n), equal to the first-index argmin of
    _exact_dists, except that a padded point, whose squared norm is +inf,
    goes to the sink, index width.

    Distances are first screened with one matrix product per run,
    s = |c|^2 - 2 x.c, the centroids multiplied by -2 once (exact, a power
    of two) and padded slots zeroed for the product, then +inf. s leaves
    out |x|^2, which shifts every slot of a point alike, so neither the
    argmin nor the slots near it move. With u = eps / 2 and g(m) = m u /
    (1 - m u), the product rounds within g(dim) 2|x||c| <= g(dim) (|x|^2 +
    |c|^2), |c|^2 within g(dim) |c|^2 and their sum within 2u (1 +
    g(dim)) (|x|^2 + |c|^2); the exact form rounds within g(dim + 2)
    |x - c|^2 <= 2 g(dim + 2) (|x|^2 + |c|^2), and underflow adds at most
    tiny eps per operation. Those sum to about (2 dim + 3) eps (|x|^2 +
    |c|^2), so s + |x|^2 and the exact distance lie well within
    B = 8 (dim + 4) (eps (|x|^2 + max|c|^2) + tiny) of each other (the
    bound that also held with |x|^2 in the sum), and wherever the best
    screened value beats the second by more than 2B it is also the exact
    argmin. The other (run, point) pairs are recomputed exactly, which
    settles ties as the reference does. Points go through in slices of at
    most _BLOCK_ELEMENTS distances.
    """
    dim, runs, n = cols.shape
    width = cents.shape[1]
    real = np.isfinite(cents[:, :, 0])
    zeroed = np.where(real[:, :, None], cents, 0.0)
    cc = np.einsum("rwd,rwd->rw", zeroed, zeroed)
    cmax = cc.max(axis=1)[:, None]
    cc[~real] = np.inf
    zeroed *= -2.0
    out = np.empty((runs, n), dtype=np.intp)
    step = max(1, _BLOCK_ELEMENTS // (runs * width))
    for lo in range(0, n, step):
        x, xx = cols[:, :, lo : lo + step], sq_norms[:, lo : lo + step]
        d = zeroed @ x.transpose(1, 0, 2)
        d += cc[:, :, None]
        bound = 8 * (dim + 4) * (_EPS * (xx + cmax) + _TINY)
        near = d <= (d.min(axis=1) + 2 * bound)[:, None]
        # every slot within twice the bound of the minimum adds width + its
        # index, so the sum lies in [width, 2 width) when exactly one slot
        # does, and then names it; the minimum is always near, since every
        # value is finite for real points that _points accepts. Two or more
        # slots add at least 2 width + 1, so no real point's sum is 2 width:
        # that sum marks a padded point, and names the sink
        code = np.arange(width, 2.0 * width) @ near
        code[np.isinf(xx)] = 2 * width
        best = code.astype(np.intp) - width
        j, i = np.nonzero(code > 2 * width)
        chunk = max(1, _BLOCK_ELEMENTS // (width * dim))
        for at in range(0, len(i), chunk):
            ii, jj = i[at : at + chunk], j[at : at + chunk]
            rows = np.ascontiguousarray(x[:, jj, ii].T)
            best[jj, ii] = _exact_dists(rows, cents[jj]).argmin(axis=1)
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
            assignment = _assign(pts.T[:, None], sq_norms[None], centroids[None])[0]
    return assignment, centroids


def _lloyd(sets, owner, starts, ks):
    """Lloyd's algorithm for a stack of runs advanced in lockstep.

    Run j clusters set owner[j] of the _Sets sets from the centroids in
    the first ks[j] rows of starts (runs, width, dim). Later rows are
    padding; they are set to +inf, so their distances are +inf and no
    point is ever assigned to them. The runs see their sets padded to the
    longest of them, n points. A padded point's squared norm is +inf, so
    _assign sends it to the sink, slot width: a cell of its own in the
    centroid sums that no centroid reads, which it never leaves, so the
    done test never sees it move. A run stops when its assignment stops
    changing or after MAX_ITERATIONS, and then leaves the stack. When the
    update before took no sequential step, it leaves before the centroid
    sums: its centroids already are the point-order means of an
    assignment that stood.

    Returns the final assignments (runs, n), centroids (runs, width, dim)
    and WCSS (runs,), the last from one wcss call per set size over the
    runs' real points. Each run has the bits a run on its own would give:
    assignments are the exact argmin (see _assign), and each centroid is
    its members' sum in point order (np.bincount adds points in order)
    divided by their count, in every dimension. Only an iteration that
    leaves a cluster empty replays the run through _sequential_update.

    A stacked group takes all its sums in one bincount over its gathered
    columns in (dimension, run, point) order. A group of one run takes
    them in (point, dimension) order over its set's own contiguous rows,
    through an (n, dim) index of bins cell * dim + d that it keeps across
    its iterations, rewriting only the points whose cell differs from the
    one the index holds, which also follows a replay that moved points
    after the sums. Each bin still adds in point order from 0.0, so the
    bits are the same; but consecutive additions go to different bins,
    where on points in cluster order the dimension-major sum adds almost
    every coordinate to the bin the last addition wrote, one long
    dependency chain.

    A run that replays in every iteration since an earlier one and is back
    at that iteration's assignment and centroids cycles with that period
    up to MAX_ITERATIONS, since each state follows from the one before. It
    leaves the stack at the next iteration whose distance to the cap is a
    multiple of the period, in the state the cap would leave it in. Each
    replaying run keeps one checkpoint state, moved to the iteration that
    ends the 1st, 2nd, 4th, 8th, ... replay of its streak (Brent's cycle
    detection), so a cycle of period p shows within a few times p
    iterations of its start. Repeated points whose point-order means are
    an ulp off them cycle so, with periods of 2 to 16 seen.
    """
    sizes = sets.sizes[owner]
    n = sizes.max()
    runs, width = starts.shape[:2]
    dim = starts.shape[2]
    ks = np.asarray(ks)
    real = np.arange(width) < ks[:, None]
    centroids = np.where(real[:, :, None], starts, np.inf)
    # row d is coordinate d of every live run's points, in the order of cells
    cols = sets.cols[:, :, :n].take(owner, axis=1)
    sq_norms = sets.sq_norms[owner, :n]
    # no assignment is -1, so no run stops after its first iteration
    assignment = np.full((runs, n), -1, dtype=np.intp)
    active = np.arange(runs)
    # whether each live run's last update replayed _sequential_update
    replayed = np.zeros(runs, dtype=bool)
    # a lone run's bin index and the cell each point holds in it; -1 is no
    # cell, so the first pass writes every point
    bins, held = (np.empty((n, dim), dtype=np.intp), np.full(n, -1)) if runs == 1 else (None, None)
    # run -> (first and last iteration of its current streak of replays, its
    # checkpoint's iteration and state, the period once found)
    cycles = {}
    for it in range(1, MAX_ITERATIONS + 1):
        before = centroids[active]
        new = _assign(cols, sq_norms, before)
        done = (new == assignment[active]).all(axis=1)
        # a run whose assignment stands after a bincount update already
        # holds its point-order means, so it stops before the sums
        stay = replayed | ~done
        if not stay.all():
            active, before, new, done, replayed = (a[stay] for a in (active, before, new, done, replayed))
            if not len(active):
                break
            cols, sq_norms = cols.compress(stay, axis=1), sq_norms[stay]
        live = len(active)
        # each run's cells are its width clusters, then the sink
        cells = (np.arange(live)[:, None] * (width + 1) + new).ravel()
        size = live * (width + 1)
        counts = np.bincount(cells, minlength=size).reshape(live, width + 1)[:, :width]
        if bins is None:
            # one bincount sums every coordinate; dimension d's cells start at d * size
            sums = np.bincount((np.arange(dim)[:, None] * size + cells).ravel(), cols.ravel(), dim * size)
            sums = sums.reshape(dim, live, width + 1)[:, :, :width] / np.maximum(counts, 1)
            sums = sums.transpose(1, 2, 0)
        else:
            moved = np.flatnonzero(new[0] != held)
            held[moved] = new[0, moved]
            # written through the transpose, a row per dimension, which numpy fills faster
            bins.T[:, moved] = np.arange(dim)[:, None] + held[moved] * dim
            sums = np.bincount(bins.ravel(), sets.rows[owner[0], :n].ravel(), size * dim)
            sums = sums.reshape(1, width + 1, dim)[:, :width] / np.maximum(counts, 1)[:, :, None]
        cents = np.where(counts[:, :, None] > 0, sums, before)
        replay = ((counts == 0) & real[active]).any(axis=1)
        for j in np.flatnonzero(replay):
            run = active[j]
            s, k, m = owner[run], ks[run], sizes[run]
            new[j, :m], cents[j, :k] = _sequential_update(
                sets.rows[s, :m], sets.sq_norms[s, :m], before[j, :k], new[j, :m]
            )
            done[j] = (new[j] == assignment[run]).all()
            state = new[j].tobytes() + cents[j].tobytes()
            first, last, at, seen, period = cycles.get(run, (0, -1, 0, b"", 0))
            if last != it - 1:
                first, at, seen = it, it, state
            elif not period and state == seen:
                period = it - at
            elif not (it - first + 1) & (it - first):
                # the streak's 2nd, 4th, 8th, ... replay moves the checkpoint
                at, seen = it, state
            cycles[run] = first, it, at, seen, period
            # the states repeat every period iterations up to the cap
            done[j] |= period > 0 and (MAX_ITERATIONS - it) % period == 0
        assignment[active] = new
        centroids[active] = cents
        active, replayed = active[~done], replay[~done]
        if not len(active):
            break
        if done.any():
            cols, sq_norms = cols.compress(~done, axis=1), sq_norms[~done]
    totals = _by_size(
        sizes, lambda of, m: wcss(sets.rows[owner[of], :m], assignment[of, :m], centroids[of])
    )
    return assignment, centroids, totals


def _best_fits(point_sets, ks, seed, restarts):
    """The lowest-WCSS restart of every k in ks[s] (ascending, none past
    the set's size) for every point set point_sets[s], all of one
    dimension: one list of fits per set, in ks[s] order.

    Every set takes the same restart seeds. Restart r of every k of a set
    starts from the first k centroids of one k-means++ draw of max(ks[s])
    centroids with restart r's seed: a draw of k makes the same random
    calls as the first k steps of a longer one, so every k starts where a
    fit of that k alone would. The draws of every set and restart are made
    together (see _kmeans_pp_init). A k = 1 run ends at its set's
    point-order mean with every point in cluster 0, whatever its start,
    so every restart of k = 1 gives the same bits and only restart 0 runs;
    the draws are still made whole.

    The runs go through _lloyd k-major (then by set size, set and
    restart, one np.lexsort), in groups of at most _BLOCK_ELEMENTS run x
    point x max(cluster, dimension) elements (at least one run each), with
    each run counted at its group's longest set. That bounds the group's
    distance matrix and its (run, point, dimension) temporaries. A group's
    cost only grows as it takes the next run, so np.searchsorted finds
    where it would pass the block, and the group ends there. A (set, k)'s
    runs are adjacent, in restart order, so its lowest total in a group is
    one np.minimum.reduceat and its winner the first run at that total.
    Each (set, k) keeps only its lowest-WCSS fit so far, replaced only by a
    strictly lower total, so the earlier restart wins a tie, within a group
    and across groups, and only a winner that beats the best so far is
    copied out.
    """
    sets = _pad(point_sets)
    dim = sets.rows.shape[2]
    master = np.random.default_rng(_seed(seed))
    restart_seeds = master.integers(2**63, size=restarts)
    # draw s * restarts + r is restart r of set s
    rngs = [np.random.default_rng(x) for _ in point_sets for x in restart_seeds]
    lengths = np.repeat([max(set_ks) for set_ks in ks], restarts)
    starts = _kmeans_pp_init(sets, np.arange(len(rngs)) // restarts, lengths, rngs)
    pairs = np.array([(s, k) for s, set_ks in enumerate(ks) for k in set_ks])
    reps = np.where(pairs[:, 1] == 1, 1, restarts)
    # run i is restart r[i] of the pair[i]-th (set, k); lexsort is stable,
    # so each pair's restarts stay in order
    pair = np.repeat(np.arange(len(pairs)), reps)
    r = np.arange(len(pair)) - (np.cumsum(reps) - reps)[pair]
    s, k = pairs[pair].T
    order = np.lexsort((s, sets.sizes[s], k))
    k, s, r, pair = k[order], s[order], r[order], pair[order]
    ends, cost, size = [0], np.maximum(k, dim), sets.sizes[s]
    while ends[-1] < len(k):
        lo = ends[-1]
        grown = np.arange(1, len(k) - lo + 1) * np.maximum.accumulate(size[lo:]) * cost[lo:]
        ends.append(lo + max(1, int(np.searchsorted(grown, _BLOCK_ELEMENTS, side="right"))))

    fits, lowest = [None] * len(pairs), np.full(len(pairs), np.inf)
    for lo, hi in zip(ends, ends[1:]):
        group_starts = starts[s[lo:hi] * restarts + r[lo:hi], : k[hi - 1]]
        assigned, cents, totals = _lloyd(sets, s[lo:hi], group_starts, k[lo:hi])
        firsts = np.flatnonzero(np.diff(pair[lo:hi], prepend=-1))
        mins = np.minimum.reduceat(totals, firsts)
        at = np.flatnonzero(totals == np.repeat(mins, np.diff(firsts, append=hi - lo)))
        # the first run at each pair's minimum, where that beats the pair's best so far
        for j in at[np.searchsorted(at, firsts)][mins < lowest[pair[lo + firsts]]].tolist():
            p, m, c = pair[lo + j], size[lo + j], k[lo + j]
            lowest[p] = totals[j]
            fits[p] = KMeansResult(assigned[j, :m].copy(), cents[j, :c].copy(), float(totals[j]))
    it = iter(fits)
    return [[next(it) for _ in set_ks] for set_ks in ks]


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
    return _best_fits([pts], [[k]], seed, restarts)[0][0]


def knee_point(wcss_values):
    """Index of the curve knee: 1-based k with maximum perpendicular
    distance to the chord from the first to the last curve point.

    Ties resolve to the smaller k. The x axis is the cluster count
    1..len(wcss_values) with unit spacing.
    """
    ws = [float(_finite_real(w, f"wcss_values[{i}]")) for i, w in enumerate(wcss_values)]
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
    _integer(k_max, "k_max", 1, len(pts))
    return elbow_fits([pts], k_max, seed)[0]


def elbow_fits(point_sets, k_max, seed):
    """elbow_fit(points, min(k_max, len(points)), seed) for every set in
    point_sets, in one sweep: a list of (k, fit), one per set.

    The sets must share one dimension; their runs share Lloyd groups (see
    _best_fits), which changes no bit of any fit.
    """
    sets = [_points(points) for points in point_sets]
    k_max = _integer(k_max, "k_max", 1, INT64_MAX)
    if len({pts.shape[1] for pts in sets}) > 1:
        raise InvalidInputError("point sets must share one dimension")
    if not sets:
        return []
    ks = [range(1, min(k_max, len(pts)) + 1) for pts in sets]
    sweeps = _best_fits(sets, ks, seed, DEFAULT_RESTARTS)
    knees = [knee_point([fit.wcss for fit in fits]) for fits in sweeps]
    return [(k, fits[k - 1]) for k, fits in zip(knees, sweeps)]


def elbow_k(points, k_max, seed):
    """The k that elbow_fit picks."""
    return elbow_fit(points, k_max, seed)[0]
