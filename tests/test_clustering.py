from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import clustering
from fuzzyloc.clustering import elbow_fit, elbow_k, kmeans, knee_point, wcss
from fuzzyloc.errors import InvalidInputError


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
        assert a.wcss_history == b.wcss_history

    def test_k_equals_one_uses_global_mean(self):
        result = kmeans(FOUR_BLOBS, 1, seed=0)
        assert np.allclose(result.centroids[0], FOUR_BLOBS.mean(axis=0))
        assert set(result.assignment) == {0}

    def test_k_equals_n_puts_every_point_alone(self):
        pts = np.array([[0.0], [1.0], [5.0], [9.0]])
        result = kmeans(pts, 4, seed=0)
        assert sorted(result.assignment) == [0, 1, 2, 3]
        assert result.wcss_history[-1] == 0.0

    def test_recovers_separated_blobs(self):
        result = kmeans(FOUR_BLOBS, 4, seed=5, restarts=5)
        sizes = sorted(np.bincount(result.assignment, minlength=4))
        assert sizes == [50, 50, 50, 50]

    def test_wcss_history_is_monotone_nonincreasing(self):
        result = kmeans(FOUR_BLOBS, 3, seed=9)
        hist = result.wcss_history
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_restarts_never_hurt(self):
        for seed in range(5):
            single = kmeans(FOUR_BLOBS, 4, seed=seed).wcss_history[-1]
            multi = kmeans(FOUR_BLOBS, 4, seed=seed, restarts=5).wcss_history[-1]
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
            kmeans(pts, 1, seed=0, restarts=0)


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


class TestElbowK:
    def test_finds_four_blobs(self):
        assert elbow_k(FOUR_BLOBS, k_max=10, seed=0) == 4

    def test_single_or_few_points_short_circuit(self):
        assert elbow_k(np.array([[1.0]]), k_max=10, seed=0) == 1
        assert elbow_k(np.empty((0, 3)), k_max=5, seed=0) == 1

    def test_k_max_validation(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(InvalidInputError):
            elbow_k(pts, k_max=1, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_k(pts, k_max=4, seed=0)

    def test_deterministic(self):
        assert elbow_k(FOUR_BLOBS, 8, seed=123) == elbow_k(FOUR_BLOBS, 8, seed=123)


# -- scalar reference: k-means as it ran before the lockstep kernel ---------
# One run at a time, a Python loop over clusters per iteration, and one
# k-means++ draw per (k, restart). The kernel must give the same bits.


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
                centroids[c] = members.mean(axis=0)
            else:
                worst = ((pts - centroids[new_assignment]) ** 2).sum(axis=1).argmax()
                centroids[c] = pts[worst]
                new_assignment = ref_assign(pts, centroids)
        history.append(wcss(pts, new_assignment, centroids))
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


def assert_same_fit(got, want):
    assignment, centroids, history = want
    assert np.array_equal(got.assignment, assignment)
    assert np.array_equal(got.centroids, centroids)
    assert got.wcss_history == history


@st.composite
def point_sets(draw, min_n=1, max_n=14):
    """Small point sets whose rows repeat often, so clusters go empty."""
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, 3))
    value = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=float)


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
    @given(pts=point_sets(min_n=2), data=st.data(), block=blocks)
    def test_sweep_matches_reference_and_reuses_the_knee_fit(self, pts, data, block):
        k_max = data.draw(st.integers(2, len(pts)), label="k_max")
        restarts = data.draw(st.integers(1, 5), label="restarts")
        seed = data.draw(seeds, label="seed")
        with mock.patch.object(clustering, "_BLOCK_ELEMENTS", block):
            k, fit = elbow_fit(pts, k_max, seed, restarts=restarts)
            fresh = kmeans(pts, k, seed, restarts=restarts)
        curve = [ref_kmeans(pts, j, seed, restarts)[2][-1] for j in range(1, k_max + 1)]
        assert k == knee_point(curve)
        assert k == elbow_k(pts, k_max, seed, restarts=restarts)
        assert_same_fit(fit, (fresh.assignment, fresh.centroids, fresh.wcss_history))
        assert_same_fit(fit, ref_kmeans(pts, k, seed, restarts))

    @settings(max_examples=100, deadline=None)
    @given(pts=point_sets(), data=st.data())
    def test_stacked_runs_match_one_run_each(self, pts, data):
        # runs of different k side by side, starts with repeated rows, and
        # iteration caps that stop runs before they converge
        ks = data.draw(st.lists(st.integers(1, len(pts)), min_size=1, max_size=6), label="ks")
        width = max(ks)
        starts = np.zeros((len(ks), width, pts.shape[1]))
        for j, k in enumerate(ks):
            rows = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=k, max_size=k))
            starts[j, :k] = pts[rows]
        cap = data.draw(st.sampled_from([1, 2, 3, 300]), label="max_iterations")
        fits = clustering._lloyd(pts, starts, ks, max_iterations=cap)
        for fit, k, start in zip(fits, ks, starts):
            assert_same_fit(fit, ref_lloyd(pts, start[:k], max_iterations=cap))

    def test_empty_cluster_replays_the_sequential_step(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0], [5.0, 5.0]])
        # the first two starts coincide, so cluster 1 starts empty
        starts = pts[[0, 1, 3, 4]][None]
        with mock.patch.object(
            clustering, "_sequential_update", wraps=clustering._sequential_update
        ) as replay:
            (fit,) = clustering._lloyd(pts, starts, [4])
        assert replay.called
        assert_same_fit(fit, ref_lloyd(pts, starts[0]))

    def test_one_dimension_matches_pairwise_means(self):
        # members.mean(axis=0) of an (m, 1) array sums pairwise, which the
        # point-order bincount does not reproduce once m reaches 8 and more
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(300, 1)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
        for k in (1, 2, 5):
            assert_same_fit(kmeans(pts, k, 9, restarts=3), ref_kmeans(pts, k, 9, 3))

    def test_corridor_sized_class_matches_reference(self):
        pts = blobs([(0, 0, 0, 0, 0), (3, 1, 0, 2, 1)], per_blob=15, sd=1.0, seed=8)
        for k in range(1, 11):
            assert_same_fit(kmeans(pts, k, 42, restarts=5), ref_kmeans(pts, k, 42, 5))
        k, fit = elbow_fit(pts, 10, 42, restarts=5)
        assert_same_fit(fit, ref_kmeans(pts, k, 42, 5))


class TestElbowFit:
    def test_returns_the_knee_and_its_fit(self):
        k, fit = elbow_fit(FOUR_BLOBS, k_max=10, seed=0)
        assert k == 4
        assert len(fit.centroids) == 4
        assert sorted(np.bincount(fit.assignment)) == [50, 50, 50, 50]

    def test_validation(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(InvalidInputError):
            elbow_fit(pts, k_max=1, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(pts, k_max=4, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(np.array([[1.0]]), k_max=2, seed=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(pts, k_max=2, seed=0, restarts=0)
        with pytest.raises(InvalidInputError):
            elbow_fit(pts.ravel(), k_max=2, seed=0)
