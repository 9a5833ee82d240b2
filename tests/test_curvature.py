import itertools
import math
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import curvature
from fuzzyloc.curvature import feature_curvature, menger_curvature, rank_features
from fuzzyloc.errors import InsufficientDataError, InvalidInputError

from conftest import identity_normalized

coord = st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100)
point = st.tuples(coord, coord)


def circumradius_via_circumcenter(p, q, r):
    """Independent oracle: intersect perpendicular bisectors at high precision."""
    mpmath.mp.dps = 50
    (px, py), (qx, qy), (rx, ry) = (
        (mpmath.mpf(p[0]), mpmath.mpf(p[1])),
        (mpmath.mpf(q[0]), mpmath.mpf(q[1])),
        (mpmath.mpf(r[0]), mpmath.mpf(r[1])),
    )
    d = 2 * (px * (qy - ry) + qx * (ry - py) + rx * (py - qy))
    ux = ((px**2 + py**2) * (qy - ry) + (qx**2 + qy**2) * (ry - py) + (rx**2 + ry**2) * (py - qy)) / d
    uy = ((px**2 + py**2) * (rx - qx) + (qx**2 + qy**2) * (px - rx) + (rx**2 + ry**2) * (qx - px)) / d
    return mpmath.sqrt((px - ux) ** 2 + (py - uy) ** 2)


class TestMengerCurvature:
    def test_right_triangle(self):
        # circumradius of a right triangle is half the hypotenuse
        got = menger_curvature((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_points_on_a_circle_give_inverse_radius(self):
        radius = 5.0
        angles = [0.3, 1.9, 4.0]
        p, q, r = [(radius * math.cos(t), radius * math.sin(t)) for t in angles]
        assert menger_curvature(p, q, r) == pytest.approx(1.0 / radius, rel=1e-12)

    def test_matches_circumcenter_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q, r = rng.uniform(-50, 50, size=(3, 2))
            kappa = menger_curvature(tuple(p), tuple(q), tuple(r))
            if kappa == 0.0:
                continue
            want = float(1 / circumradius_via_circumcenter(tuple(p), tuple(q), tuple(r)))
            assert kappa == pytest.approx(want, rel=1e-9)

    def test_exactly_representable_collinear_points_score_zero(self):
        assert menger_curvature((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)) == 0.0
        # dyadic slope/intercept/step keep the cross product exactly zero
        xs = [0.25, 0.5, 0.75]
        ys = [0.375 * x - 1.5 for x in xs]
        assert menger_curvature(*zip(xs, ys)) == 0.0

    def test_coincident_points_score_zero(self):
        assert menger_curvature((1.0, 2.0), (1.0, 2.0), (3.0, 4.0)) == 0.0
        assert menger_curvature((1.0, 2.0), (1.0, 2.0), (1.0, 2.0)) == 0.0

    @pytest.mark.parametrize(
        "p, q, r",
        [
            # the product of the edge lengths underflows to 0
            ((0.0, 0.0), (0.0, 1.04e-272), (3.37e-38, 0.0)),
            # the cross product and the edge-length product overflow
            ((0.0, 0.0), (1e200, 1e200), (2e200, -1e200)),
            # the cross product underflows to 0 as well (1.414e200 and 1.0e170)
            ((0.0, 0.0), (1e-200, 0.0), (0.0, 1e-200)),
            ((0.0, 0.0), (1e-170, 1e-170), (2e-170, 0.0)),
            # so small that the curvature, 2.86e323, is beyond the float range
            ((0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)),
        ],
    )
    def test_edge_products_beyond_the_float_range_are_rescaled(self, p, q, r):
        want = float(1 / circumradius_via_circumcenter(p, q, r))
        assert menger_curvature(p, q, r) == pytest.approx(want, rel=1e-12)

    @given(p=point, q=point, r=point)
    def test_never_negative(self, p, q, r):
        assert menger_curvature(p, q, r) >= 0.0

    # integer coordinates keep the cross product exact, so permutations can
    # only disagree through the rounding of the three side lengths
    lattice = st.tuples(
        st.integers(-100, 100).map(float), st.integers(-100, 100).map(float)
    )

    @given(p=lattice, q=lattice, r=lattice)
    def test_vertex_order_is_irrelevant(self, p, q, r):
        baseline = menger_curvature(p, q, r)
        for perm in [(q, p, r), (r, q, p), (p, r, q)]:
            assert menger_curvature(*perm) == pytest.approx(baseline, rel=1e-12)


class TestFeatureCurvature:
    def test_single_tent_triple(self):
        # (0,0),(1,1),(2,0): |cross| = 2, sides sqrt2 * sqrt2 * 2
        assert feature_curvature([0.0, 1.0, 0.0]) == pytest.approx(1.0, rel=1e-15)

    def test_affine_ramps_score_zero(self):
        assert feature_curvature([3.0, 5.0, 7.0, 9.0, 11.0]) == 0.0
        assert feature_curvature([0.5, 0.375, 0.25, 0.125, 0.0]) == 0.0

    def test_constant_feature_scores_zero(self):
        assert feature_curvature([0.7] * 10) == 0.0

    def test_mean_over_interior_points(self):
        values = [0.0, 1.0, 0.0, 1.0]
        per_triple = [
            menger_curvature((0, 0.0), (1, 1.0), (2, 0.0)),
            menger_curvature((1, 1.0), (2, 0.0), (3, 1.0)),
        ]
        assert feature_curvature(values) == sum(per_triple) / 2

    def test_needs_three_samples(self):
        with pytest.raises(InsufficientDataError):
            feature_curvature([1.0, 2.0])


class TestScalarIntake:
    """The scalar references refuse a value they cannot read, naming it,
    where an infinite one recursed without end and NaN scored NaN."""

    @pytest.mark.parametrize("points, named", [
        (((0, 0), (1, math.inf), (2, 0)), "non-finite q[1]: inf"),
        (((0, 0), (1, 0), (-math.inf, 0)), "non-finite r[0]: -inf"),
        (((math.nan, 0), (1, 0), (2, 0)), "non-finite p[0]: nan"),
        (((0, "0"), (1, 0), (2, 0)), "p[1] must be a real number, got str"),
        (((0, 0), (1,), (2, 0)), "q is not a pair (x, y)"),
        (((0, 0), 1.0, (2, 0)), "q is not a pair (x, y)"),
    ])
    def test_menger_curvature_refuses_a_point_it_cannot_read(self, points, named):
        with pytest.raises(InvalidInputError) as info:
            menger_curvature(*points)
        assert str(info.value) == named

    @pytest.mark.parametrize("values, named", [
        ([0.0, math.inf, 1.0], "non-finite values[1]: inf"),
        ([0.0, 1.0, math.nan], "non-finite values[2]: nan"),
        (["0", "1", "x"], "values[0] must be a real number, got str"),
        ([0.0, True, 1.0], "values[1] must be a real number, got bool"),
    ])
    def test_feature_curvature_refuses_a_value_it_cannot_read(self, values, named):
        with pytest.raises(InvalidInputError) as info:
            feature_curvature(values)
        assert str(info.value) == named


class TestRankFeatures:
    def test_ranks_follow_scores(self):
        # column 1 wiggles hard, column 0 is flat, column 2 wiggles a bit
        data = identity_normalized(
            [[0.0, 0.0, 0.0], [0.5, 1.0, 0.6], [1.0, 0.0, 1.0], [0.5, 1.0, 0.4]],
            [1, 1, 2, 2],
        )
        ranking = rank_features(data, top_n=2)
        assert ranking.ranks[1] == 1
        assert ranking.scores[1] > ranking.scores[2] > ranking.scores[0]
        assert ranking.selected_indices() == (1, 2)

    def test_ties_rank_by_feature_index(self):
        column = [0.0, 1.0, 0.0, 1.0]
        data = identity_normalized(list(zip(column, column, column)), [1, 2, 1, 2])
        ranking = rank_features(data, top_n=1)
        assert ranking.ranks == (1, 2, 3)
        assert ranking.selected_indices() == (0,)

    def test_epsilon_must_be_finite(self):
        data = identity_normalized([[0.0], [1.0], [0.0]], [1, 2, 1])
        for bad in [float("nan"), float("inf")]:
            with pytest.raises(InvalidInputError, match="non-finite epsilon"):
                rank_features(data, epsilon=bad)

    def test_epsilon_is_strictly_greater(self):
        data = identity_normalized(
            [[0.0, 0.0], [1.0, 0.25], [0.0, 0.5], [1.0, 0.75], [0.0, 1.0]],
            [1, 1, 2, 2, 3],
        )
        scores = rank_features(data, top_n=2).scores
        assert scores[1] == 0.0  # affine ramp
        ranking = rank_features(data, epsilon=0.0)
        assert ranking.selected_indices() == (0,)
        at_score = rank_features(data, epsilon=scores[0])
        assert at_score.selected_indices() == ()

    def test_sorted_panels_flatten_monotone_rearrangeable_columns(self):
        data = identity_normalized([[0.0], [1.0], [0.5]], [1, 2, 3])
        dataset_order = rank_features(data, top_n=1)
        assert dataset_order.scores[0] > 0.0
        panels = rank_features(data, top_n=1, sort_values=True)
        assert panels.scores[0] == 0.0
        assert panels.sorted_panels

    def test_requires_normalized_dataset(self):
        from fuzzyloc.data import Dataset

        raw = Dataset(features=[[0.0], [1.0], [2.0]], labels=[1, 2, 3], feature_names=("f0",))
        with pytest.raises(InvalidInputError):
            rank_features(raw, top_n=1)

    def test_needs_three_instances(self):
        data = identity_normalized([[0.0], [1.0]], [1, 2])
        with pytest.raises(InsufficientDataError):
            rank_features(data, top_n=1)

    def test_selection_rule_must_be_unambiguous(self):
        data = identity_normalized([[0.0], [1.0], [0.0]], [1, 2, 1])
        with pytest.raises(InvalidInputError):
            rank_features(data)
        with pytest.raises(InvalidInputError):
            rank_features(data, top_n=1, epsilon=0.5)

    def test_top_n_must_fit(self):
        data = identity_normalized([[0.0], [1.0], [0.0]], [1, 2, 1])
        with pytest.raises(InvalidInputError):
            rank_features(data, top_n=2)
        with pytest.raises(InvalidInputError):
            rank_features(data, top_n=0)
        with pytest.raises(InvalidInputError, match="^top_n must be <= 1, got an integer beyond 64 bits$"):
            rank_features(data, top_n=10**5000)
        # three features, so that a truncated 2.5 or a True would fit
        data = identity_normalized([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]], [1, 2, 1])
        for bad, name in [(2.5, "float"), (True, "bool"), ("2", "str")]:
            with pytest.raises(InvalidInputError, match=f"^top_n must be an integer, got {name}$"):
                rank_features(data, top_n=bad)
        ranking = rank_features(data, top_n=np.int64(2))
        assert type(ranking.top_n) is int and sum(ranking.selected) == 2


@st.composite
def feature_tables(draw):
    """(m, n) tables with 1, 2 or many columns; columns may repeat."""
    m = draw(st.integers(3, 40))
    n = draw(st.sampled_from([1, 2, 3, 7, 12]))
    value = st.one_of(
        st.integers(0, 4).map(lambda v: v / 4),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    pool = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=float).T


def reference_scores(table, sort_values):
    return [
        feature_curvature(sorted(column) if sort_values else column) for column in table.T
    ]


def reference_ranks(scores):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return tuple(order.index(i) + 1 for i in range(len(scores)))


class TestWholeMatrixKernel:
    """rank_features scores every column at once; feature_curvature is the
    scalar reference it must follow."""

    @settings(max_examples=150, deadline=None)
    @given(table=feature_tables(), sort_values=st.booleans())
    def test_same_bits_as_the_scalar_loop_given_the_same_hypot(self, table, sort_values):
        # np.hypot and math.hypot disagree by an ulp now and then; with the
        # reference on np.hypot too, every other operation must agree exactly
        same_hypot = SimpleNamespace(hypot=lambda x, y: float(np.hypot(x, y)))
        ranking = rank_features(identity_normalized(table, [1] * len(table)), top_n=1,
                                sort_values=sort_values)
        with mock.patch.object(curvature, "math", same_hypot):
            want = reference_scores(table, sort_values)
        assert ranking.scores == tuple(want)
        assert all(type(score) is float for score in ranking.scores)
        assert ranking.ranks == reference_ranks(want)

    @settings(max_examples=150, deadline=None)
    @given(table=feature_tables(), sort_values=st.booleans())
    def test_close_to_the_scalar_reference(self, table, sort_values):
        # each triple's curvature moves by at most a few ulp with the hypot,
        # and the running sum can add an ulp of itself per triple
        m = len(table)
        ranking = rank_features(identity_normalized(table, [1] * m), top_n=1,
                                sort_values=sort_values)
        want = reference_scores(table, sort_values)
        tolerance = [(m + 8) * np.finfo(float).eps * w for w in want]
        for got, w, tol in zip(ranking.scores, want, tolerance):
            assert abs(got - w) <= tol
        for i, j in itertools.permutations(range(len(want)), 2):
            if want[i] - tolerance[i] > want[j] + tolerance[j]:
                assert ranking.ranks[i] < ranking.ranks[j]

    def test_one_column_sums_in_row_order(self):
        # a reduction down one column would sum pairwise from 8 rows on
        rng = np.random.default_rng(3)
        table = rng.random((300, 1)) ** 3
        same_hypot = SimpleNamespace(hypot=lambda x, y: float(np.hypot(x, y)))
        with mock.patch.object(curvature, "math", same_hypot):
            want = feature_curvature(table[:, 0])
        got = rank_features(identity_normalized(table, [1] * 300), top_n=1).scores[0]
        assert got == want
