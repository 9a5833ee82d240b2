import ast
import functools
import inspect
import re
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import clustering, rulebase
from fuzzyloc.clustering import (
    DEFAULT_RESTARTS, MAX_RESTARTS, KMeansResult, elbow_fit, elbow_fits, elbow_k, kmeans, knee_point,
    wcss,
)
from fuzzyloc.data import fit_normalization
from fuzzyloc.errors import InvalidInputError
from fuzzyloc.synth import generate_synthetic


def blobs(centers, per_blob, sd, seed):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    points = []
    for c in centers:
        points.append(c + rng.normal(0.0, sd, size=(per_blob, len(c))))
    return np.vstack(points)


FOUR_BLOBS = blobs([(0, 0), (20, 0), (0, 20), (20, 20)], per_blob=50, sd=1.0, seed=3)


class TestKMeans:
    def test_same_seed_same_result(self):
        a = kmeans(FOUR_BLOBS, 4, seed=11)
        b = kmeans(FOUR_BLOBS, 4, seed=11)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.wcss == b.wcss

    def test_k_equals_one_uses_global_mean(self):
        result = kmeans(FOUR_BLOBS, 1, seed=0)
        assert np.allclose(result.centroids[0], FOUR_BLOBS.mean(axis=0))
        assert set(result.assignment) == {0}

    def test_k_equals_n_puts_every_point_alone(self):
        pts = np.array([[0.0], [1.0], [5.0], [9.0]])
        result = kmeans(pts, 4, seed=0)
        assert sorted(result.assignment) == [0, 1, 2, 3]
        assert result.wcss == 0.0

    def test_recovers_separated_blobs(self):
        result = kmeans(FOUR_BLOBS, 4, seed=5, restarts=5)
        sizes = sorted(np.bincount(result.assignment, minlength=4))
        assert sizes == [50, 50, 50, 50]

    def test_wcss_after_each_iteration_cap_follows_the_reference_and_never_rises(self):
        start = ref_kmeans_pp_init(FOUR_BLOBS, 3, np.random.default_rng(9))
        history = ref_lloyd(FOUR_BLOBS, start)[2]
        assert len(history) > 2
        capped = []
        for cap in range(1, len(history) + 1):
            with mock.patch.object(clustering, "MAX_ITERATIONS", cap):
                capped.append(lloyd([FOUR_BLOBS], [0], start[None], [3])[0].wcss)
        assert tuple(capped) == history
        assert all(a >= b for a, b in zip(capped, capped[1:]))

    def test_restarts_never_hurt(self):
        for seed in range(5):
            single = kmeans(FOUR_BLOBS, 4, seed=seed).wcss
            multi = kmeans(FOUR_BLOBS, 4, seed=seed, restarts=5).wcss
            assert multi <= single + 1e-9

    def test_duplicate_points_collapse_without_crashing(self):
        pts = np.array([[1.0, 1.0]] * 6 + [[5.0, 5.0]] * 6)
        result = kmeans(pts, 2, seed=1)
        assert wcss(pts, result.assignment, result.centroids) == 0.0

    def test_validation(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            kmeans(pts, 0, seed=0)
        with pytest.raises(InvalidInputError):
            kmeans(pts, 3, seed=0)
        with pytest.raises(InvalidInputError):
            kmeans(np.empty((0, 2)), 1, seed=0)
        with pytest.raises(InvalidInputError):
            kmeans(np.empty((2, 0)), 1, seed=0)
        with pytest.raises(InvalidInputError):
            kmeans(pts, 1, seed=0, restarts=0)

    @pytest.mark.parametrize(
        "restarts, shown", [(MAX_RESTARTS + 1, MAX_RESTARTS + 1), (10**30, "an integer beyond 64 bits")]
    )
    def test_restart_count_is_bounded_before_any_generator(self, restarts, shown):
        pts = np.array([[0.0], [1.0]])
        named = f"restarts must be <= {MAX_RESTARTS}, got {shown}"
        with (
            mock.patch.object(np.random, "default_rng") as rng,
            pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"),
        ):
            kmeans(pts, 1, seed=0, restarts=restarts)
        assert not rng.called

    def test_negative_seed_is_named(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
            kmeans(pts, 1, seed=-1)
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -3"):
            elbow_fit(pts, k_max=2, seed=-3)
        with pytest.raises(InvalidInputError, match="seed must be an integer, got float"):
            kmeans(pts, 2, seed=1.5)
        with pytest.raises(
            InvalidInputError, match="^seed must be <= 9223372036854775807, got 9223372036854775808$"
        ):
            kmeans(pts, 2, seed=2**63)


# a point set no fit takes: a non-finite value, or squared distances past the
# float range (1e200 squared is 1e400)
UNFIT = "points must be finite, with squared distances within the float range"


class TestIntake:
    PTS = np.array([[0.0], [1.0], [2.0]])

    @pytest.mark.parametrize(
        "fit, named",
        [
            (lambda pts: kmeans(pts, 2.5, 0), "k must be an integer, got float"),
            (lambda pts: kmeans(pts, True, 0), "k must be an integer, got bool"),
            (lambda pts: kmeans(pts, 1, 0, restarts=2.0), "restarts must be an integer, got float"),
            (lambda pts: kmeans(pts, 1, 0, restarts=True), "restarts must be an integer, got bool"),
            (lambda pts: elbow_fit(pts, 3.0, 0), "k_max must be an integer, got float"),
            (lambda pts: elbow_fit(pts, True, 0), "k_max must be an integer, got bool"),
            (lambda pts: kmeans(pts, 1, 0, restarts="5"), "restarts must be an integer, got str"),
            (lambda pts: elbow_k(pts, 3.0, 0), "k_max must be an integer, got float"),
            # str() refuses an int of more than 4,300 digits
            (lambda pts: kmeans(pts, 10**5000, 0), "k must be <= 3, got an integer beyond 64 bits"),
            (
                lambda pts: kmeans(pts, 1, 0, restarts=-(10**5000)),
                "restarts must be >= 1, got an integer beyond 64 bits",
            ),
            (lambda pts: elbow_fit(pts, 10**5000, 0), "k_max must be <= 3, got an integer beyond 64 bits"),
            (lambda pts: elbow_k(pts, -(10**5000), 0), "k_max must be >= 1, got an integer beyond 64 bits"),
        ],
    )
    def test_counts_are_integers_and_messages_show_them(self, fit, named):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            fit(self.PTS)

    def test_numpy_integers_are_counts(self):
        got = kmeans(self.PTS, np.int64(2), 0, restarts=np.int32(2))
        assert_same_fit(got, ref_kmeans(self.PTS, 2, 0, 2))
        assert elbow_fit(self.PTS, np.uint8(3), 0)[0] == elbow_fit(self.PTS, 3, 0)[0]

    @pytest.mark.parametrize(
        "pts",
        [np.array([[0.0, 0.0], [1.0, 1.0], [bad, 0.0], [2.0, 2.0]]) for bad in (np.nan, np.inf, -np.inf, 1e200)]
        + [
            # squared distances fit, but a first centroid at the far point
            # makes a k-means++ total of 3 x 1.69e308: a draw's check refused
            # this set for some seeds only
            np.array([[0.0], [0.0], [0.0], [1.3e154]]),
            # squared distances of 0 and 1, but coordinate sums past the range
            np.array([[1.7e308, 0.0], [1.7e308, 1.0]]),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_points_beyond_the_float_range_are_refused(self, pts, k):
        for seed in range(20):
            fits = [
                lambda: kmeans(pts, k, seed, restarts=3),
                lambda: elbow_fit(pts, k, seed),
                lambda: elbow_k(pts, k, seed),
            ]
            for fit in fits:
                with pytest.raises(InvalidInputError, match=f"^{UNFIT}$"):
                    fit()


@st.composite
def edge_point_sets(draw):
    """Point sets whose largest squared norm lies near the intake's bound,
    max / (32 n), on either side of it, sometimes with a non-finite value."""
    n = draw(st.integers(1, 8), label="n")
    dim = draw(st.integers(1, 3), label="dim")
    edge = np.sqrt(np.finfo(float).max / (32 * n))
    scale = draw(st.sampled_from([1e-300, 0.5, 1.0, 1e6]) | st.floats(0.9, 8.0), label="scale")
    value = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1, 1, allow_nan=False)
    rows = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=n, max_size=n))
    pts = np.array(rows)
    norm = np.sqrt(np.square(pts).sum(axis=1).max())
    if norm > 0:
        pts *= scale * edge / norm
    if draw(st.booleans()):
        pts[draw(st.integers(0, n - 1)), 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return pts


class TestOneIntake:
    # pyproject turns every RuntimeWarning into an error, so a fit that
    # overflows anywhere fails here
    @settings(max_examples=150, deadline=None)
    @given(pts=edge_point_sets(), data=st.data())
    def test_an_accepted_set_fits_at_every_seed_and_a_refused_one_at_none(self, pts, data):
        try:
            clustering._points(pts)
        except InvalidInputError:
            accepted = False
        else:
            accepted = True
        n = len(pts)
        for seed in data.draw(st.lists(seeds, min_size=1, max_size=3), label="seeds"):
            k = data.draw(st.integers(1, min(n, 4)), label="k")
            restarts = data.draw(st.integers(1, 3), label="restarts")
            if accepted:
                fit = kmeans(pts, k, seed, restarts=restarts)
                assert np.isfinite(fit.centroids).all() and np.isfinite(fit.wcss)
                elbow_fit(pts, k, seed)
            else:
                for refused in (lambda: kmeans(pts, k, seed, restarts), lambda: elbow_fit(pts, k, seed)):
                    with pytest.raises(InvalidInputError, match=f"^{UNFIT}$"):
                        refused()

    def test_one_function_raises_the_point_set_refusals(self):
        # the messages as raised, so that the check outlives a rewording
        messages = set()
        for pts in (np.empty((0, 2)), np.array([[np.nan]])):
            with pytest.raises(InvalidInputError) as refused:
                kmeans(pts, 1, 0)
            messages.add(str(refused.value))
        tree = ast.parse(Path(clustering.__file__).read_text(encoding="utf-8"))
        sites = [
            (func.name, node.value)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for raised in ast.walk(func)
            if isinstance(raised, ast.Raise)
            for node in ast.walk(raised)
            if isinstance(node, ast.Constant) and node.value in messages
        ]
        assert len(sites) == len(messages) == 2
        assert len({name for name, _ in sites}) == 1
        # and no message is kept anywhere else, say in a constant to raise later
        constants = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value in messages]
        assert len(constants) == 2


class TestKneePoint:
    def test_sharp_elbow(self):
        assert knee_point([100.0, 50.0, 10.0, 9.0, 8.0]) == 3

    def test_perpendicular_distance_oracle(self):
        curve = [90.0, 40.0, 15.0, 12.0, 10.0, 9.5]
        x = np.arange(1, len(curve) + 1, dtype=float)
        y = np.asarray(curve)
        p1 = np.array([x[0], y[0]])
        p2 = np.array([x[-1], y[-1]])
        chord = p2 - p1
        rel_x, rel_y = x - p1[0], y - p1[1]
        dists = np.abs(rel_x * chord[1] - rel_y * chord[0]) / np.hypot(*chord)
        assert knee_point(curve) == int(dists.argmax()) + 1

    def test_tie_goes_to_smaller_k(self):
        # straight line: every point is on the chord, distance 0 everywhere
        assert knee_point([30.0, 20.0, 10.0]) == 1

    def test_short_curves(self):
        assert knee_point([5.0]) == 1
        assert knee_point([5.0, 1.0]) == 1
        with pytest.raises(InvalidInputError):
            knee_point([])

    @pytest.mark.parametrize(
        "curve, message",
        [
            (["3", "2", "1"], "wcss_values[0] must be a real number, got str"),
            ([10, True, 1], "wcss_values[1] must be a real number, got bool"),
            ([10, 5, float("nan"), 1], "non-finite wcss_values[2]: nan"),
            ([10, float("inf"), 1], "non-finite wcss_values[1]: inf"),
            ([10, 2**1024, 1], "non-finite wcss_values[1]: an integer beyond 64 bits"),
        ],
        ids=["text", "bool", "nan", "inf", "huge-int"],
    )
    def test_every_value_is_a_finite_real_named_by_its_index(self, curve, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            knee_point(curve)

    @given(
        a=st.floats(0, 1e300, allow_nan=False, allow_infinity=False),
        ratio=st.floats(0, 1, allow_nan=False),
    )
    def test_two_point_curve_has_its_knee_at_one(self, a, ratio):
        # both points lie on the chord; rounding once put the knee at 2
        assert knee_point([a, a * ratio]) == 1


class TestElbowK:
    def test_finds_four_blobs(self):
        assert elbow_k(FOUR_BLOBS, k_max=10, seed=0) == 4

    def test_single_or_few_points_pick_one(self):
        assert elbow_k(np.array([[1.0]]), k_max=1, seed=0) == 1
        assert elbow_k(np.array([[1.0], [9.0]]), k_max=2, seed=0) == 1
        with pytest.raises(InvalidInputError, match="^points must be a non-empty 2-D array$"):
            elbow_k(np.empty((0, 3)), k_max=5, seed=0)

    def test_k_max_validation(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert elbow_k(pts, k_max=1, seed=0) == 1
        with pytest.raises(InvalidInputError):
            elbow_k(pts, k_max=0, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_k(pts, k_max=4, seed=0)

    def test_deterministic(self):
        assert elbow_k(FOUR_BLOBS, 8, seed=123) == elbow_k(FOUR_BLOBS, 8, seed=123)


# -- scalar reference: k-means as it ran before the lockstep kernel ---------
# One run at a time, a Python loop over clusters per iteration, and one
# k-means++ draw per (k, restart). The kernel must give the same bits.
# A centroid is its members' sum in point order over their count; for two
# or more dimensions that is members.mean(axis=0), bit for bit.


def ref_kmeans_pp_init(pts, k, rng):
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


def ref_assign(pts, centroids):
    dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return dists.argmin(axis=1)


def ref_wcss(pts, assignment, centroids):
    """WCSS as one run computed it before stacked totals: the reference
    for clustering.wcss."""
    return float(((pts - centroids[assignment]) ** 2).sum())


def ref_lloyd(pts, centroids, max_iterations=300):
    k = len(centroids)
    centroids = centroids.copy()
    assignment = None
    history = []
    for _ in range(max_iterations):
        new_assignment = ref_assign(pts, centroids)
        for c in range(k):
            members = pts[new_assignment == c]
            if len(members):
                centroids[c] = functools.reduce(np.add, members) / len(members)
            else:
                worst = ((pts - centroids[new_assignment]) ** 2).sum(axis=1).argmax()
                centroids[c] = pts[worst]
                new_assignment = ref_assign(pts, centroids)
        history.append(ref_wcss(pts, new_assignment, centroids))
        if assignment is not None and np.array_equal(assignment, new_assignment):
            break
        assignment = new_assignment
    return assignment, centroids, tuple(history)


def ref_kmeans(pts, k, seed, restarts=1):
    master = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        rng = np.random.default_rng(master.integers(2**63))
        fit = ref_lloyd(pts, ref_kmeans_pp_init(pts, k, rng))
        if best is None or fit[2][-1] < best[2][-1]:
            best = fit
    return best


def lloyd(point_sets, owner, starts, ks):
    """clustering._lloyd over point_sets, a list of (n, dim) arrays, as one
    group: every run's KMeansResult, cut to its own set and k. Padded
    points must sit in the sink, slot width."""
    sets = clustering._pad(point_sets)
    starts = np.asarray(starts, dtype=float)
    assignment, centroids, totals = clustering._lloyd(sets, np.asarray(owner), starts, ks)
    assert assignment.shape == (len(starts), max(len(point_sets[s]) for s in owner))
    fits = []
    for a, c, w, s, k in zip(assignment, centroids, totals, owner, ks):
        n = len(point_sets[s])
        assert (a[n:] == starts.shape[1]).all()
        fits.append(KMeansResult(a[:n], c[:k], w))
    return fits


def assert_same_fit(got, want):
    """got, a KMeansResult, is the fit want = (assignment, centroids, WCSS
    history) ends in, bit for bit."""
    assignment, centroids, history = want
    assert np.array_equal(got.assignment, assignment)
    assert np.array_equal(got.centroids, centroids)
    assert got.wcss == history[-1]


@st.composite
def point_sets(draw, min_n=1, max_n=14, dim=None):
    """Small point sets whose rows repeat often, so clusters go empty."""
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, 3)) if dim is None else dim
    value = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=float)


@st.composite
def wide_point_sets(draw, min_n=1, max_n=14, dim=None):
    """Point sets in 1 to 32 dimensions, past numpy's 8-way unrolled sums.

    Rows repeat; mirror images across the first axis put every row whose
    first coordinate is 0 exactly as far from a row as from its mirror;
    and a large common offset makes |x|^2 - 2 x.c + |c|^2 cancel badly.
    """
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, 32)) if dim is None else dim
    offset = draw(st.sampled_from([0.0, 1e3, 1e5, 1e8]))
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-1, 1, allow_nan=False))
    pool = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=n))
    if draw(st.booleans()):
        pool += [[-row[0]] + row[1:] for row in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return offset + np.array([pool[i] for i in picks], dtype=float)


@st.composite
def stacked_runs(draw, make, max_dim):
    """One to three point sets of one dimension, drawn by make, and one to
    six runs over them, of different k side by side, with starts drawn
    from the rows of each run's own set, so that they repeat:
    (sets, owner, starts, ks)."""
    dim = draw(st.integers(1, max_dim), label="dim")
    sets = draw(st.lists(make(dim=dim), min_size=1, max_size=3), label="sets")
    owner = draw(st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=6), label="owner")
    ks = [draw(st.integers(1, len(sets[s])), label="k") for s in owner]
    starts = np.zeros((len(ks), max(ks), dim))
    for j, (s, k) in enumerate(zip(owner, ks)):
        rows = draw(st.lists(st.integers(0, len(sets[s]) - 1), min_size=k, max_size=k))
        starts[j, :k] = sets[s][rows]
    return sets, owner, starts, ks


# 1 element puts every run in a group of its own; 2**16 is the kernel's own
blocks = st.sampled_from([1, 40, 2**16])
seeds = st.integers(0, 2**32 - 1)


class TestLockstepKernel:
    @settings(max_examples=150, deadline=None)
    @given(pts=point_sets(), data=st.data(), block=blocks)
    def test_kmeans_matches_scalar_reference(self, pts, data, block):
        k = data.draw(st.integers(1, len(pts)), label="k")
        restarts = data.draw(st.integers(1, 5), label="restarts")
        seed = data.draw(seeds, label="seed")
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block):
            got = kmeans(pts, k, seed, restarts=restarts)
        assert_same_fit(got, ref_kmeans(pts, k, seed, restarts))

    @settings(max_examples=100, deadline=None)
    @given(pts=point_sets(), data=st.data(), block=blocks)
    def test_sweep_matches_reference_and_reuses_the_knee_fit(self, pts, data, block):
        k_max = data.draw(st.integers(1, len(pts)), label="k_max")
        restarts = data.draw(st.integers(1, 5), label="restarts")
        seed = data.draw(seeds, label="seed")
        with (
            mock.patch.object(clustering, "_BLOCK_ELEMENTS", block),
            mock.patch.object(clustering, "DEFAULT_RESTARTS", restarts),
        ):
            k, fit = elbow_fit(pts, k_max, seed)
            fresh = kmeans(pts, k, seed, restarts=restarts)
            assert k == elbow_k(pts, k_max, seed)
        curve = [ref_kmeans(pts, j, seed, restarts)[2][-1] for j in range(1, k_max + 1)]
        assert k == knee_point(curve)
        assert_same_fit(fit, (fresh.assignment, fresh.centroids, [fresh.wcss]))
        assert_same_fit(fit, ref_kmeans(pts, k, seed, restarts))

    @settings(max_examples=100, deadline=None)
    @given(runs=stacked_runs(point_sets, 3), data=st.data())
    def test_stacked_runs_match_one_run_each(self, runs, data):
        # point sets of different lengths in one group, and iteration caps
        # that stop runs before they converge
        sets, owner, starts, ks = runs
        cap = data.draw(st.sampled_from([1, 2, 3, 300]), label="max_iterations")
        with mock.patch.object(clustering, "MAX_ITERATIONS", cap):
            fits = lloyd(sets, owner, starts, ks)
        for fit, s, k, start in zip(fits, owner, ks, starts):
            assert_same_fit(fit, ref_lloyd(sets[s], start[:k], max_iterations=cap))

    @pytest.mark.parametrize("dim", [1, 5, 24])
    def test_sets_of_1_to_30_rows_share_a_group(self, dim):
        # rows drawn from a small pool repeat, so some runs start with
        # coinciding centroids and replay the sequential step
        rng = np.random.default_rng(dim)
        pool = rng.integers(-2, 3, size=(6, dim)) + rng.normal(0.0, 0.1, size=(6, dim))
        sets = [pool[rng.integers(6, size=n)] for n in (1, 2, 3, 29, 30)]
        owner, ks, starts = [], [], np.zeros((5 * 4 * 2, 4, dim))
        for s, pts in enumerate(sets):
            for k in range(1, min(len(pts), 4) + 1):
                for _ in range(2):
                    starts[len(ks), :k] = pts[rng.integers(len(pts), size=k)]
                    owner.append(s)
                    ks.append(k)
        starts = starts[: len(ks)]
        with mock.patch.object(
            clustering, "_sequential_update", wraps=clustering._sequential_update
        ) as replay:
            fits = lloyd(sets, owner, starts, ks)
        assert replay.called
        for fit, s, k, start in zip(fits, owner, ks, starts):
            assert_same_fit(fit, ref_lloyd(sets[s], start[:k]))

    def test_empty_cluster_replays_the_sequential_step(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0], [5.0, 5.0]])
        # the first two starts coincide, so cluster 1 starts empty
        starts = pts[[0, 1, 3, 4]][None]
        with mock.patch.object(
            clustering, "_sequential_update", wraps=clustering._sequential_update
        ) as replay:
            (fit,) = lloyd([pts], [0], starts, [4])
        assert replay.called
        assert_same_fit(fit, ref_lloyd(pts, starts[0]))

    def test_empty_cluster_in_a_padded_set_replays_its_own_points(self):
        # the short set is padded to the long one's 9 points; its run replays
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0], [5.0, 5.0]])
        longer = np.arange(18.0).reshape(9, 2)
        starts = np.stack([pts[[0, 1, 3, 4]], longer[[0, 4, 8, 2]]])
        with mock.patch.object(
            clustering, "_sequential_update", wraps=clustering._sequential_update
        ) as replay:
            short_fit, long_fit = lloyd([longer, pts], [1, 0], starts, [4, 4])
        # every replay is the short run's, over its own five points
        assert replay.called
        assert all(np.array_equal(call.args[0], pts) for call in replay.call_args_list)
        assert_same_fit(short_fit, ref_lloyd(pts, starts[0]))
        assert_same_fit(long_fit, ref_lloyd(longer, starts[1]))

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 300])
    def test_a_run_that_replays_next_to_last_still_takes_its_update(self, cap):
        # from 9, 1 and 10, iteration 2 leaves cluster 0 empty and replays,
        # and iteration 3 repeats the replayed assignment: its update must
        # still run, since the replayed centroids are not the means of that
        # assignment. Beside it, a run that settles after 2 iterations
        # leaves the stack before its sums.
        pts = np.array([[1.0], [3.0], [4.0], [5.0], [9.0], [9.0], [10.0]])
        other = np.array([[0.0], [1.0], [10.0], [11.0]])
        starts = np.array([[[9.0], [1.0], [10.0]], [[0.0], [10.0], [0.0]]])
        replayed, final = ref_lloyd(pts, starts[0], 2), ref_lloyd(pts, starts[0])
        assert len(final[2]) == 3 and len(ref_lloyd(other, starts[1, :2])[2]) == 2
        assert np.array_equal(replayed[0], final[0])
        assert not np.array_equal(replayed[1], final[1])
        sequential, inner = clustering._sequential_update, []

        def counted_update(*args):
            # the assignment passes of the sequential step itself
            made = assign.call_count
            out = sequential(*args)
            inner.append(assign.call_count - made)
            return out

        with (
            mock.patch.object(clustering, "MAX_ITERATIONS", cap),
            mock.patch.object(clustering, "_assign", wraps=clustering._assign) as assign,
            mock.patch.object(clustering, "_sequential_update", counted_update),
        ):
            fit, other_fit = lloyd([pts, other], [0, 1], starts, [3, 2])
        assert len(inner) == (cap >= 2)
        # one pass per iteration of the stack, which lasts as long as its longer run
        assert assign.call_count - sum(inner) == min(cap, 3)
        assert_same_fit(fit, ref_lloyd(pts, starts[0], max_iterations=cap))
        assert_same_fit(other_fit, ref_lloyd(other, starts[1, :2], max_iterations=cap))

    def test_lone_runs_over_points_in_cluster_order_match_reference(self):
        # 12 rooms of 200 rows in file order, as synth writes them: 2,400
        # points x 16 dimensions fill a block alone, so every group is one
        # run, which sums in (point, dimension) order through its kept
        # index, and consecutive points share a cluster
        pts = fit_normalization(generate_synthetic(12, 200, 16, 0.5, seed=6)).features
        refs = {k: ref_kmeans(pts, k, 7, 2) for k in range(1, 5)}
        with mock.patch.object(clustering, "_lloyd", wraps=clustering._lloyd) as groups:
            for k in range(1, 5):
                assert_same_fit(kmeans(pts, k, 7, restarts=2), refs[k])
            with mock.patch.object(clustering, "DEFAULT_RESTARTS", 2):
                k, fit = elbow_fit(pts, 4, 7)
        assert groups.call_count == 14 and all(len(call.args[1]) == 1 for call in groups.call_args_list)
        assert k == knee_point([refs[j][2][-1] for j in range(1, 5)])
        assert_same_fit(fit, refs[k])
        assert (np.diff(fit.assignment) == 0).mean() > 0.99

    @pytest.mark.parametrize("cap", [1, 2, 3, 300])
    def test_a_lone_run_sums_the_points_its_replay_moved(self, cap):
        # from 9, 1 and 10, iteration 2 leaves cluster 0 empty; after its
        # sums, the replay moves 4 and 5 (points 2 and 3) into the
        # re-seeded cluster 0, and iteration 3 keeps that assignment but
        # still sums it, so the kept index must follow the replay
        pts = np.array([[1.0], [3.0], [4.0], [5.0], [9.0], [9.0], [10.0]])
        starts = np.array([[[9.0], [1.0], [10.0]]])
        sequential, moved = clustering._sequential_update, []

        def recorded(pts, sq_norms, centroids, assignment):
            before = assignment.copy()
            out = sequential(pts, sq_norms, centroids, assignment)
            moved.append(np.flatnonzero(out[0] != before).tolist())
            return out

        with (
            mock.patch.object(clustering, "MAX_ITERATIONS", cap),
            mock.patch.object(clustering, "_sequential_update", recorded),
            mock.patch.object(clustering, "_assign", wraps=clustering._assign) as assign,
        ):
            (fit,) = lloyd([pts], [0], starts, [3])
        assert moved == [[2, 3]] * (cap >= 2)
        # one pass per kernel iteration, plus the replay's own
        assert assign.call_count - len(moved) == min(cap, 3)
        assert_same_fit(fit, ref_lloyd(pts, starts[0], max_iterations=cap))

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_repeated_points_stop_at_their_cycle(self, value):
        # the point-order mean of 9 copies of the point is an ulp off it,
        # so every iteration empties a cluster and the assignment flips
        # back and forth; the run takes the state the cap would leave
        pts = np.full((9, 6), value)
        assert (np.add.accumulate(pts)[-1] / 9 != pts[0]).all()
        for k in (2, 3, 5):
            for cap in (7, 8, 300):
                with (
                    mock.patch.object(clustering, "MAX_ITERATIONS", cap),
                    mock.patch.object(
                        clustering, "_sequential_update", wraps=clustering._sequential_update
                    ) as replay,
                ):
                    (fit,) = lloyd([pts], [0], pts[None, :k], [k])
                assert replay.call_count <= 5
                assert_same_fit(fit, ref_lloyd(pts, pts[:k], max_iterations=cap))
        start = time.perf_counter()
        with mock.patch.object(
            clustering, "_sequential_update", wraps=clustering._sequential_update
        ) as replay:
            elbow_fit(pts, 9, 0)
        assert time.perf_counter() - start < 1.0
        # 8 k x 5 restarts, each stopped after a few replays, not 300
        assert replay.call_count <= 5 * 8 * DEFAULT_RESTARTS

    def test_cycles_of_longer_periods_stop_in_the_state_of_the_cap(self):
        # three distinct rows, one coordinate of two of them with a mean an
        # ulp off; from the first k rows, k = 4 to 9 runs cycle with periods
        # 4, 8, 6, 12, 8 and 16, and 16 consecutive caps meet every phase
        pool = np.array([
            [1.0, 1.0, 293.4740926216791],
            [158.01543524136378, -872.7438512797358, 293.4740926216791],
            [527.4882684891252, -999.8338867912637, 994.6475018844385],
        ])
        pts = pool[[1, 1, 1, 1, 0, 2, 1, 1, 2, 0, 1, 2]]
        for k in range(4, 10):
            assert len(ref_lloyd(pts, pts[:k])[2]) == 300
            for cap in [*range(40, 56), 300]:
                with (
                    mock.patch.object(clustering, "MAX_ITERATIONS", cap),
                    mock.patch.object(
                        clustering, "_sequential_update", wraps=clustering._sequential_update
                    ) as replay,
                ):
                    (fit,) = lloyd([pts], [0], pts[None, :k], [k])
                assert replay.call_count < 50
                assert_same_fit(fit, ref_lloyd(pts, pts[:k], max_iterations=cap))

    def test_one_dimension_sums_in_point_order(self):
        # one-dimensional runs take the bincount path like any other; their
        # centroids are point-order means, not members.mean(axis=0), which
        # sums an (m, 1) array pairwise and differs once m reaches 8
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(300, 1)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
        for k in (1, 2, 5):
            assert_same_fit(kmeans(pts, k, 9, restarts=3), ref_kmeans(pts, k, 9, 3))

    @settings(max_examples=100, deadline=None)
    @given(pts=point_sets(), data=st.data())
    def test_a_fit_holds_the_wcss_of_its_own_state(self, pts, data):
        k = data.draw(st.integers(1, len(pts)), label="k")
        restarts = data.draw(st.integers(1, 5), label="restarts")
        seed = data.draw(seeds, label="seed")
        for fit in (kmeans(pts, k, seed, restarts=restarts), elbow_fit(pts, k, seed)[1]):
            assert fit._fields == ("assignment", "centroids", "wcss")
            assert type(fit.wcss) is float
            assert fit.wcss == wcss(pts, fit.assignment, fit.centroids)

    def test_corridor_sized_class_matches_reference(self):
        pts = blobs([(0, 0, 0, 0, 0), (3, 1, 0, 2, 1)], per_blob=15, sd=1.0, seed=8)
        for k in range(1, 11):
            assert_same_fit(kmeans(pts, k, 42, restarts=5), ref_kmeans(pts, k, 42, 5))
        k, fit = elbow_fit(pts, 10, 42)
        assert_same_fit(fit, ref_kmeans(pts, k, 42, DEFAULT_RESTARTS))


@st.composite
def draw_point_sets(draw):
    """Up to 300 points in 1 to 12 dimensions, rows of a pool that is often
    small, so that a draw can run out of new rows and its totals reach 0."""
    n = draw(st.integers(1, 300), label="n")
    dim = draw(st.integers(1, 12), label="dim")
    size = draw(st.integers(1, 4) | st.integers(1, n), label="pool size")
    noise = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]), label="noise")
    offset = draw(st.sampled_from([0.0, 1e8]), label="offset")
    rng = np.random.default_rng(draw(seeds, label="rows"))
    pool = rng.integers(-2, 3, size=(size, dim)) + noise * rng.normal(size=(size, dim))
    return offset + pool[rng.integers(size, size=n)]


class TestBatchedDraw:
    @settings(max_examples=100, deadline=None)
    @given(pts=draw_point_sets(), data=st.data(), block=blocks)
    def test_each_row_is_a_choice_draw_of_its_own(self, pts, data, block):
        # up to three sets: the first and prefixes of it, so that the
        # shorter ones are padded; each draw has a length of its own
        cuts = data.draw(st.lists(st.integers(1, len(pts)), max_size=2), label="cuts")
        sets = [pts] + [pts[:cut] for cut in cuts]
        draws = data.draw(st.integers(1, 6), label="draws")
        owner = data.draw(st.lists(st.integers(0, len(sets) - 1), min_size=draws, max_size=draws))
        lengths = [data.draw(st.integers(1, min(len(sets[s]), 40)), label="length") for s in owner]
        master = np.random.default_rng(data.draw(seeds, label="seed"))
        draw_seeds = [master.integers(2**63) for _ in range(draws)]
        rngs = [np.random.default_rng(s) for s in draw_seeds]
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block):
            starts = clustering._kmeans_pp_init(
                clustering._pad(sets), np.array(owner), np.array(lengths), rngs
            )
        assert starts.shape == (draws, max(lengths), pts.shape[1])
        for got, rng, s, k, own_seed in zip(starts, rngs, owner, lengths, draw_seeds):
            own = np.random.default_rng(own_seed)
            assert np.array_equal(got[:k], ref_kmeans_pp_init(sets[s], k, own))
            # the same random calls: both generators end in the same state
            assert rng.bit_generator.state == own.bit_generator.state

    def test_changing_one_result_changes_no_other(self):
        pts = blobs([(0, 0, 0), (4, 4, 4)], per_blob=10, sd=1.0, seed=2)
        sweeps = clustering._best_fits([pts, pts[:7]], [[1, 2, 3], [2, 3]], 0, 2)
        fits = sweeps[0] + sweeps[1] + [fit for _, fit in elbow_fits([pts, pts[5:]], 4, 1)]
        arrays = [a for fit in fits for a in (fit.assignment, fit.centroids)]
        # no view of a buffer of the kernel's, nor of another result's
        assert all(a.flags.owndata for a in arrays)
        kept = [a.copy() for a in arrays]
        for i, a in enumerate(arrays):
            a[...] = -1
            assert all(np.array_equal(b, c) for b, c in zip(arrays[i + 1 :], kept[i + 1 :]))


def counted_generators(calls, log=None):
    """A stand-in for np.random.default_rng that counts the generators it
    makes in calls["generators"] and every method looked up on them in
    calls[name]; log, if given, gets one list per generator of the names
    it was asked for, in order."""
    default_rng = np.random.default_rng

    class CountedGenerator:
        def __init__(self, seed):
            calls["generators"] += 1
            self.rng = default_rng(seed)
            self.made = []
            if log is not None:
                log.append(self.made)

        def __getattr__(self, name):
            calls[name] += 1
            self.made.append(name)
            return getattr(self.rng, name)

    return CountedGenerator


class TestFixedCost:
    """Counts, not timings, of the work one elbow sweep of a corridor-sized
    class does, so that a per-draw or per-run cost cannot come back
    unnoticed."""

    def test_one_generator_per_restart_and_one_assignment_per_iteration(self):
        corridor = generate_synthetic(n_rooms=10, per_room=30, n_beacons=5, noise_sd=0.5, seed=42)
        pts = corridor.features[corridor.labels == 5]
        assert pts.shape == (30, 5)
        calls, runs = Counter(), []
        lloyd_runs = clustering._lloyd

        def counted_lloyd(sets, owner, starts, ks):
            runs.extend(start[:k].copy() for start, k in zip(starts, ks))
            return lloyd_runs(sets, owner, starts, ks)

        with (
            mock.patch.object(np.random, "default_rng", counted_generators(calls)),
            mock.patch.object(clustering, "_lloyd", counted_lloyd),
            mock.patch.object(clustering, "_assign", wraps=clustering._assign) as assign,
            mock.patch.object(clustering, "_sequential_update") as replay,
        ):
            elbow_fit(pts, 10, 42)
        assert calls["choice"] == 0
        assert calls["generators"] == DEFAULT_RESTARTS + 1
        # 46 runs, k = 1 once, fit one lockstep group, which iterates as
        # long as its longest run; no cluster goes empty, so no run is
        # replayed
        assert len(runs) == 9 * DEFAULT_RESTARTS + 1 and not replay.called
        assert assign.call_count == max(len(ref_lloyd(pts, start)[2]) for start in runs)

    def test_one_call_sweeps_every_class_in_few_groups(self):
        # the nine classes of a corridor experiment: 414 runs in two groups
        corridor = generate_synthetic(n_rooms=10, per_room=30, n_beacons=5, noise_sd=0.5, seed=42)
        classes = [corridor.features[corridor.labels == room] for room in range(1, 11) if room != 5]
        with (
            mock.patch.object(clustering, "_lloyd", wraps=clustering._lloyd) as lloyd_calls,
            mock.patch.object(clustering, "_assign", wraps=clustering._assign) as assign,
        ):
            fits = elbow_fits(classes, 10, 42)
        groups = [call.args[1:] for call in lloyd_calls.call_args_list]
        assert [len(owner) for owner, _, _ in groups] == [279, 135]
        # each group iterates as long as its longest run
        assert assign.call_count == sum(
            max(len(ref_lloyd(classes[s], start[:k])[2]) for s, start, k in zip(*group))
            for group in groups
        )
        for pts, (k, fit) in zip(classes, fits):
            assert_same_fit(fit, ref_kmeans(pts, k, 42, DEFAULT_RESTARTS))

    @pytest.mark.parametrize("k_max", [1, 2, 6])
    def test_k_one_runs_once_and_every_draw_is_made_whole(self, k_max):
        sets = [FOUR_BLOBS, FOUR_BLOBS[::7], FOUR_BLOBS[:3]]
        calls, log = Counter(), []
        with (
            mock.patch.object(np.random, "default_rng", counted_generators(calls, log)),
            mock.patch.object(clustering, "_lloyd", wraps=clustering._lloyd) as lloyd_calls,
        ):
            fits = elbow_fits(sets, k_max, 8)
        ks = [k for call in lloyd_calls.call_args_list for k in call.args[3]]
        owners = [s for call in lloyd_calls.call_args_list for s in call.args[1]]
        for s, pts in enumerate(sets):
            runs = [k for k, o in zip(ks, owners) if o == s]
            k_top = min(k_max, len(pts))
            assert sorted(runs) == [1] + [k for k in range(2, k_top + 1) for _ in range(DEFAULT_RESTARTS)]
        # the master, then one generator per set and restart, each making
        # the calls of a reference draw of its set's top k, where one
        # rng.random() stands for each choice (see _kmeans_pp_init)
        master = np.random.default_rng(8)
        restart_seeds = [master.integers(2**63) for _ in range(DEFAULT_RESTARTS)]
        want = [["integers"]]
        for pts in sets:
            for restart_seed in restart_seeds:
                made = []
                rng = counted_generators(Counter(), made)(restart_seed)
                ref_kmeans_pp_init(pts, min(k_max, len(pts)), rng)
                want.append(["random" if name == "choice" else name for name in made[0]])
        assert log == want
        for pts, (k, fit) in zip(sets, fits):
            one = ref_kmeans(pts, 1, 8, DEFAULT_RESTARTS)
            assert_same_fit(clustering._best_fits([pts], [[1]], 8, DEFAULT_RESTARTS)[0][0], one)
            assert_same_fit(fit, ref_kmeans(pts, k, 8, DEFAULT_RESTARTS))

    def test_one_feature_sweeps_never_take_the_sequential_step(self):
        # a one-feature rule base clusters single columns; continuous values
        # leave no cluster empty, so no run is replayed cluster by cluster
        corridor = generate_synthetic(n_rooms=10, per_room=30, n_beacons=5, noise_sd=0.5, seed=42)
        with mock.patch.object(
            clustering, "_sequential_update", wraps=clustering._sequential_update
        ) as replay:
            for room in range(1, 11):
                for feature in (0, 3):
                    pts = corridor.features[corridor.labels == room][:, [feature]]
                    k, fit = elbow_fit(pts, 10, 42)
                    assert_same_fit(fit, ref_kmeans(pts, k, 42, DEFAULT_RESTARTS))
        assert not replay.called

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_run_iterates_as_often_as_the_reference(self, k):
        # a one-cluster run too makes a second iteration to see that
        # nothing changed
        start = ref_kmeans_pp_init(FOUR_BLOBS, k, np.random.default_rng(3))
        with mock.patch.object(clustering, "_assign", wraps=clustering._assign) as assign:
            lloyd([FOUR_BLOBS], [0], start[None], [k])
        assert assign.call_count == len(ref_lloyd(FOUR_BLOBS, start)[2])


class TestScreenedAssignment:
    """The matrix-product screen must never change an assignment."""

    @settings(max_examples=100, deadline=None)
    @given(pts=wide_point_sets(), data=st.data())
    def test_wide_points_match_scalar_reference(self, pts, data):
        k = data.draw(st.integers(1, len(pts)), label="k")
        restarts = data.draw(st.integers(1, 3), label="restarts")
        seed = data.draw(seeds, label="seed")
        assert_same_fit(kmeans(pts, k, seed, restarts=restarts), ref_kmeans(pts, k, seed, restarts))
        k_max = data.draw(st.integers(1, min(len(pts), 6)), label="k_max")
        with mock.patch.object(clustering, "DEFAULT_RESTARTS", restarts):
            k, fit = elbow_fit(pts, k_max, seed)
        curve = [ref_kmeans(pts, j, seed, restarts)[2][-1] for j in range(1, k_max + 1)]
        assert k == knee_point(curve)
        assert_same_fit(fit, ref_kmeans(pts, k, seed, restarts))

    @settings(max_examples=100, deadline=None)
    @given(runs=stacked_runs(wide_point_sets, 32), data=st.data(), block=blocks)
    def test_wide_stacked_runs_match_one_run_each(self, runs, data, block):
        # starts drawn from the rows, so mirror pairs and repeats give ties;
        # sets of different lengths and offsets share the group
        sets, owner, starts, ks = runs
        cap = data.draw(st.sampled_from([1, 2, 300]), label="max_iterations")
        with (
            mock.patch.object(clustering, "_BLOCK_ELEMENTS", block),
            mock.patch.object(clustering, "MAX_ITERATIONS", cap),
        ):
            fits = lloyd(sets, owner, starts, ks)
        for fit, s, k, start in zip(fits, owner, ks, starts):
            assert_same_fit(fit, ref_lloyd(sets[s], start[:k], max_iterations=cap))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), block=blocks)
    def test_the_screen_without_the_point_norm_keeps_the_exact_argmin(self, data, block):
        # the screen leaves out |x|^2, so it must hold where that term is
        # all there is: a large common offset, slots a few ulps apart, and
        # coordinates near 1e-150, whose squares reach the bottom of the
        # normal range; runs of different sets share one call
        dim = data.draw(st.integers(1, 8), label="dim")
        offset = data.draw(st.sampled_from([0.0, 1e4, 1e8, 1e15]), label="offset")
        scale = data.draw(st.sampled_from([1.0, 1e-150, 1e-155]), label="scale")
        rng = np.random.default_rng(data.draw(seeds, label="values"))
        runs = data.draw(st.integers(1, 3), label="runs")
        sets = [
            scale * (offset + rng.integers(-2, 3, size=(rng.integers(1, 13), dim)) / 4)
            for _ in range(runs)
        ]
        ks = [data.draw(st.integers(1, 6), label="k") for _ in sets]
        width = max(ks) + data.draw(st.integers(0, 2), label="padded slots")
        cents = np.full((runs, width, dim), np.inf)
        for j, (pts, k) in enumerate(zip(sets, ks)):
            # rows of the set, some moved a few ulps along one coordinate
            slots = pts[rng.integers(len(pts), size=k)]
            for _ in range(data.draw(st.integers(0, 2 * k), label="nudges")):
                c, d = rng.integers(k), rng.integers(dim)
                slots[c, d] = np.nextafter(slots[c, d], rng.choice([-np.inf, np.inf]))
                slots[c, d] = np.nextafter(slots[c, d], rng.choice([-np.inf, np.inf]))
            cents[j, :k] = slots
        padded = clustering._pad(sets)
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block):
            got = clustering._assign(padded.cols, padded.sq_norms, cents)
        for j, (pts, k) in enumerate(zip(sets, ks)):
            assert np.array_equal(got[j, : len(pts)], ref_assign(pts, cents[j, :k]))
            assert (got[j, len(pts) :] == width).all()

    def test_equidistant_points_take_the_exact_path(self):
        # rows with first coordinate 0 lie exactly halfway between the two
        # starts; the reference gives them to the first
        rng = np.random.default_rng(5)
        pts = rng.integers(-3, 4, size=(40, 12)).astype(float)
        pts[::3, 0] = 0.0
        starts = np.stack([pts[1], pts[1]])
        starts[0, 0], starts[1, 0] = 2.0, -2.0
        with mock.patch.object(
            clustering, "_exact_dists", wraps=clustering._exact_dists
        ) as exact:
            (fit,) = lloyd([pts], [0], starts[None], [2])
        assert exact.called
        assert_same_fit(fit, ref_lloyd(pts, starts))

    def test_large_common_offset_matches_reference(self):
        # |x|^2 is 1e17 here, so the product form loses every digit of the
        # distances and the exact recompute decides every point
        rng = np.random.default_rng(6)
        pts = 1e8 + rng.normal(size=(60, 16)) * rng.uniform(0.5, 4.0, size=(1, 16))
        for k in (2, 3, 7):
            assert_same_fit(kmeans(pts, k, 3, restarts=2), ref_kmeans(pts, k, 3, 2))
        with mock.patch.object(clustering, "DEFAULT_RESTARTS", 2):
            k, fit = elbow_fit(pts, 8, 3)
        assert_same_fit(fit, ref_kmeans(pts, k, 3, 2))

    def test_separated_points_need_no_exact_recompute(self):
        with mock.patch.object(
            clustering, "_exact_dists", wraps=clustering._exact_dists
        ) as exact:
            elbow_fit(FOUR_BLOBS, k_max=10, seed=0)
            elbow_fit(blobs([(0,) * 24, (1,) * 24], per_blob=50, sd=0.1, seed=2), 10, 0)
        assert not exact.called

    def test_run_larger_than_the_block_matches_reference(self):
        # one run of 1,400 points x 50 clusters is past the 2**16 block, so
        # its distances go through in slices of points
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(1400, 9)) + rng.integers(0, 6, size=(1400, 1))
        assert len(pts) * 50 > clustering._BLOCK_ELEMENTS
        assert_same_fit(kmeans(pts, 50, 11), ref_kmeans(pts, 50, 11))

    def test_groups_fill_the_block_by_run_point_and_max_k_dim(self):
        # a building-sized class: 100 points in 24 dimensions, k 1..10
        pts = blobs([(0,) * 24, (1,) * 24], per_blob=50, sd=0.3, seed=1)
        n, dim = pts.shape
        with mock.patch.object(clustering, "_lloyd", wraps=clustering._lloyd) as lloyd_calls:
            elbow_fit(pts, k_max=10, seed=0)
        groups = [list(call.args[3]) for call in lloyd_calls.call_args_list]
        assert sum(groups, []) == [1] + [k for k in range(2, 11) for _ in range(DEFAULT_RESTARTS)]
        for group, following in zip(groups, groups[1:] + [None]):
            assert len(group) * n * max(group[-1], dim) <= clustering._BLOCK_ELEMENTS
            if following:
                grown = (len(group) + 1) * n * max(following[0], dim)
                assert grown > clustering._BLOCK_ELEMENTS
        assert [len(g) for g in groups] == [27, 19]

    def test_groups_of_several_sets_count_runs_at_their_longest_set(self):
        # classes of 40, 100 and 60 points: k-major, then by set size
        rng = np.random.default_rng(3)
        sizes = [40, 100, 60]
        sets = [rng.normal(size=(n, 24)) for n in sizes]
        with mock.patch.object(clustering, "_lloyd", wraps=clustering._lloyd) as lloyd_calls:
            elbow_fits(sets, 10, 0)
        groups = [
            [(k, sizes[s]) for k, s in zip(call.args[3], call.args[1])]
            for call in lloyd_calls.call_args_list
        ]
        order = sorted((k, n) for k in range(1, 11) for n in sizes for _ in range(1 if k == 1 else 5))
        assert sum(groups, []) == order
        for group, following in zip(groups, groups[1:] + [None]):
            longest = max(n for _, n in group)
            assert len(group) * longest * 24 <= clustering._BLOCK_ELEMENTS
            if following:
                grown = (len(group) + 1) * max(longest, following[0][1]) * 24
                assert grown > clustering._BLOCK_ELEMENTS


def greedy_groups(sizes, ks, restarts, dim):
    """The lockstep groups as _best_fits cut them before np.searchsorted:
    every (k, set, restart) run sorted k-major, then by set size, set and
    restart, and a run joins the open group unless that takes it past
    _BLOCK_ELEMENTS run x longest set x max(k, dim) elements."""
    runs = sorted(
        (k, sizes[s], s, r)
        for s, set_ks in enumerate(ks)
        for k in set_ks
        for r in range(1 if k == 1 else restarts)
    )
    groups, longest = [[]], 0
    for k, size, s, r in runs:
        longest = max(longest, size)
        if groups[-1] and (len(groups[-1]) + 1) * longest * max(k, dim) > clustering._BLOCK_ELEMENTS:
            groups.append([])
            longest = size
        groups[-1].append((k, s, r))
    return groups


def assert_greedy_groups_and_winners(sets, ks, seed, restarts, block):
    """_best_fits cuts the greedy loop's groups and keeps, for every (set,
    k), the fit the old per-run loop kept: reading the runs in order, a run
    replaces the best so far only with a strictly lower total."""
    run_group, calls = clustering._lloyd, []

    def recorded(*args):
        out = run_group(*args)
        calls.append((args[1].tolist(), list(args[3]), out))
        return out

    with (
        mock.patch.object(clustering, "_BLOCK_ELEMENTS", block),
        mock.patch.object(clustering, "_lloyd", recorded),
    ):
        got = clustering._best_fits(sets, ks, seed, restarts)
        groups = greedy_groups([len(pts) for pts in sets], ks, restarts, sets[0].shape[1])
    assert [list(zip(group_ks, owner)) for owner, group_ks, _ in calls] == [
        [(k, s) for k, s, _ in group] for group in groups
    ]
    best = {}
    for group, (_, _, (assignment, centroids, totals)) in zip(groups, calls):
        for j, (k, s, _) in enumerate(group):
            if (s, k) not in best or totals[j] < best[s, k][2][-1]:
                best[s, k] = (assignment[j, : len(sets[s])], centroids[j, :k], [totals[j]])
    for s, set_ks in enumerate(ks):
        assert len(got[s]) == len(set_ks)
        for k, fit in zip(set_ks, got[s]):
            assert_same_fit(fit, best[s, k])
    return calls


class TestManySets:
    # a block of 1 makes every run a group and every chunk one row, which on
    # the same draws took 2 to 3 times the time of 40 and 6 times that of
    # 2**16; test_groups_and_winners_are_the_greedy_loops still draws it
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), block=st.sampled_from([40, 2**16]))
    def test_each_set_gets_the_knee_and_fit_of_its_own_sweep(self, data, block):
        dim = data.draw(st.integers(1, 6), label="dim")
        sets = data.draw(st.lists(point_sets(max_n=12, dim=dim), min_size=1, max_size=4), label="sets")
        k_max = data.draw(st.integers(1, 12), label="k_max")
        seed = data.draw(seeds, label="seed")
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block):
            got = elbow_fits(sets, k_max, seed)
        assert len(got) == len(sets)
        for pts, (k, fit) in zip(sets, got):
            want_k, want = elbow_fit(pts, min(k_max, len(pts)), seed)
            assert k == want_k
            assert_same_fit(fit, (want.assignment, want.centroids, [want.wcss]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), block=blocks)
    def test_groups_and_winners_are_the_greedy_loops(self, data, block):
        dim = data.draw(st.integers(1, 4), label="dim")
        sets = data.draw(st.lists(point_sets(max_n=10, dim=dim), min_size=1, max_size=4), label="sets")
        ks = [
            sorted(data.draw(st.sets(st.integers(1, len(pts)), min_size=1, max_size=4), label="ks"))
            for pts in sets
        ]
        restarts = data.draw(st.integers(1, 4), label="restarts")
        assert_greedy_groups_and_winners(sets, ks, data.draw(seeds, label="seed"), restarts, block)

    @pytest.mark.parametrize("block", [1, 40, 2**16])
    def test_a_tie_within_or_across_groups_is_the_greedy_pick(self, block):
        # restarts 0 and 1 of seed 0 tie (see the next test); at 1 element
        # every run is a group of its own, at 2**16 they share one
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        calls = assert_greedy_groups_and_winners([pts], [[1, 2, 3]], 0, DEFAULT_RESTARTS, block)
        assert (len(calls) > 2) == (block < 2**16)

    def test_a_tie_keeps_the_earlier_restart_across_groups(self):
        # restarts 0 and 1 of seed 0 end in the same partition with its
        # clusters numbered the other way round: the same WCSS, bit for
        # bit, from different fits. With every run a group of its own, the
        # winner is still restart 0's, as in the reference
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        master = np.random.default_rng(0)
        own = [
            ref_lloyd(pts, ref_kmeans_pp_init(pts, 2, np.random.default_rng(master.integers(2**63))))
            for _ in range(DEFAULT_RESTARTS)
        ]
        assert len({fit[2][-1] for fit in own}) == 1
        assert not np.array_equal(own[0][0], own[1][0])
        with (
            mock.patch.object(clustering, "_BLOCK_ELEMENTS", 1),
            mock.patch.object(clustering, "_lloyd", wraps=clustering._lloyd) as groups,
        ):
            fit = kmeans(pts, 2, 0, restarts=DEFAULT_RESTARTS)
        assert groups.call_count == DEFAULT_RESTARTS
        assert_same_fit(fit, own[0])
        assert_same_fit(fit, ref_kmeans(pts, 2, 0, DEFAULT_RESTARTS))

    def test_sets_must_share_one_dimension(self):
        with pytest.raises(InvalidInputError, match="^point sets must share one dimension$"):
            elbow_fits([np.zeros((3, 2)), np.zeros((3, 3))], 2, 0)
        with pytest.raises(InvalidInputError, match="^k_max must be >= 1, got 0$"):
            elbow_fits([np.zeros((3, 2))], 0, 0)
        with pytest.raises(InvalidInputError, match=f"^{UNFIT}$"):
            elbow_fits([np.zeros((3, 2)), np.full((2, 2), np.nan)], 2, 0)
        assert elbow_fits([], 3, 0) == []


OUT_OF_RANGE = r"^assignment must hold integer cluster indices in 0\.\.1$"


class TestWcss:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stacked_totals_are_the_single_run_expression(self, data):
        runs = data.draw(st.integers(1, 5), label="runs")
        n = data.draw(st.integers(1, 40), label="n")
        dim = data.draw(st.integers(1, 32), label="dim")
        k = data.draw(st.integers(1, 6), label="k")
        width = k + data.draw(st.integers(0, 3), label="padded slots")
        rng = np.random.default_rng(data.draw(seeds, label="values"))
        scale = 10.0 ** rng.uniform(-8, 8, size=(1, 1, dim))
        pts = rng.normal(size=(runs, n, dim)) * scale
        centroids = np.full((runs, width, dim), np.inf)
        centroids[:, :k] = rng.normal(size=(runs, k, dim)) * scale
        assignment = rng.integers(k, size=(runs, n))
        totals = wcss(pts, assignment, centroids)
        assert totals.shape == (runs,)
        for j in range(runs):
            want = ((pts[j] - centroids[j][assignment[j]]) ** 2).sum()
            assert totals[j] == want
            assert wcss(pts[j], assignment[j], centroids[j]) == want

    def test_padded_runs_total_their_own_points(self):
        # sets of 13 and 30 points in 9 dimensions in one group: every
        # run's total is its own set's single-run expression
        rng = np.random.default_rng(12)
        sets = [rng.normal(size=(13, 9)), rng.normal(size=(30, 9))]
        owner, ks = [0, 1, 0, 1], [1, 3, 4, 2]
        starts = np.zeros((4, 4, 9))
        for j, (s, k) in enumerate(zip(owner, ks)):
            starts[j, :k] = sets[s][rng.choice(len(sets[s]), k, replace=False)]
        for fit, s in zip(lloyd(sets, owner, starts, ks), owner):
            assert fit.wcss == ((sets[s] - fit.centroids[fit.assignment]) ** 2).sum()

    def test_one_assignment_per_point(self):
        with pytest.raises(InvalidInputError, match="^one assignment per point required$"):
            wcss(np.zeros((3, 2)), [0, 0], np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "assignment", [[[0, 2], [0, 1]], [[0, 1], [-1, 1]]], ids=["past-k", "negative"]
    )
    def test_a_stacked_index_never_reads_a_neighbouring_run(self, assignment):
        # unchecked, run 0's index 2 reads run 1's centroid 0 and run 1's
        # -1 reads run 0's last centroid: totals [81, 0] and [0, 81]
        pts = [[[0.0], [1.0]], [[10.0], [11.0]]]
        with pytest.raises(InvalidInputError, match=OUT_OF_RANGE):
            wcss(pts, assignment, pts)

    @pytest.mark.parametrize(
        "assignment", [[0, -1], [0, 2], [True, False], [0.0, 1.0], ["0", "1"]]
    )
    def test_a_single_run_takes_integer_indices_of_its_own_centroids(self, assignment):
        with pytest.raises(InvalidInputError, match=OUT_OF_RANGE):
            wcss([[0.0], [1.0]], assignment, [[0.0], [1.0]])
        assert wcss([[0.0], [1.0]], np.array([1, 0], dtype=np.uint8), [[0.0], [1.0]]) == 2.0

    @pytest.mark.parametrize(
        "points, centroids",
        [
            (np.zeros((2, 1)), np.zeros((2, 2))),
            (np.zeros((2, 1)), np.zeros(2)),
            (np.zeros((2, 1)), np.zeros((1, 2, 1))),
            (np.zeros((2, 2, 1)), np.zeros((1, 2, 1))),
            (np.zeros((2, 2, 1)), np.zeros((2, 2, 3))),
            (np.zeros(2), np.zeros(2)),
        ],
    )
    def test_points_and_centroids_share_dimension_and_run_count(self, points, centroids):
        message = "^points and centroids must share their dimension and run count$"
        with pytest.raises(InvalidInputError, match=message):
            wcss(points, np.zeros(points.shape[:-1], dtype=int), centroids)


class TestPublicNames:
    def test_signatures_stay_as_they_were(self):
        assert str(inspect.signature(kmeans)) == "(points, k, seed, restarts=1)"
        assert str(inspect.signature(elbow_fit)) == "(points, k_max, seed)"
        assert str(inspect.signature(elbow_k)) == "(points, k_max, seed)"
        assert str(inspect.signature(wcss)) == "(points, assignment, centroids)"

    def test_names_other_modules_reach_stay_importable(self):
        # perfbench patches these names and reads kmeans' signature
        assert rulebase.elbow_k is elbow_k
        assert rulebase.kmeans is kmeans
        assert clustering.kmeans is kmeans
        bound = inspect.signature(clustering.kmeans).bind(FOUR_BLOBS, 2, 0)
        bound.apply_defaults()
        assert bound.arguments["restarts"] == 1


class TestElbowFit:
    def test_returns_the_knee_and_its_fit(self):
        k, fit = elbow_fit(FOUR_BLOBS, k_max=10, seed=0)
        assert k == 4
        assert len(fit.centroids) == 4
        assert sorted(np.bincount(fit.assignment)) == [50, 50, 50, 50]

    def test_validation(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(InvalidInputError):
            elbow_fit(pts, k_max=0, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(pts, k_max=4, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(np.array([[1.0]]), k_max=2, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(pts.ravel(), k_max=2, seed=0)

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_k_max_one_is_the_one_cluster_fit(self, seed):
        k, fit = elbow_fit(FOUR_BLOBS, 1, seed)
        assert k == 1
        want = kmeans(FOUR_BLOBS, 1, seed, restarts=DEFAULT_RESTARTS)
        assert_same_fit(fit, (want.assignment, want.centroids, [want.wcss]))
