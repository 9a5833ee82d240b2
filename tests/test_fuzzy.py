import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzyloc.errors import InvalidInputError, ZeroFiringError
from fuzzyloc.fuzzy import (
    SimilarityParams,
    TriangularFuzzySet,
    aggregate,
    distance_factor,
    firing_degree,
    representative,
    similarity,
    singleton,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def tri(draw_values):
    a, b, c = sorted(draw_values)
    return TriangularFuzzySet(a, b, c)


triangles = st.tuples(finite, finite, finite).map(tri)
params_st = st.builds(
    SimilarityParams,
    h=st.floats(min_value=0.1, max_value=50, allow_nan=False),
    omega=st.floats(min_value=-10, max_value=50, allow_nan=False),
)


class TestTriangularFuzzySet:
    def test_vertices_must_be_ordered(self):
        with pytest.raises(InvalidInputError):
            TriangularFuzzySet(2.0, 1.0, 3.0)
        with pytest.raises(InvalidInputError):
            TriangularFuzzySet(1.0, 3.0, 2.0)

    def test_vertices_must_be_finite(self):
        with pytest.raises(InvalidInputError):
            TriangularFuzzySet(0.0, 1.0, math.inf)
        with pytest.raises(InvalidInputError):
            TriangularFuzzySet(math.nan, 0.0, 0.0)

    def test_numpy_real_scalars_are_taken_as_floats(self):
        s = TriangularFuzzySet(np.int64(-1), np.float32(0.5), np.float64(2.0))
        assert (s.a1, s.a2, s.a3) == (-1.0, 0.5, 2.0)
        assert all(type(v) is float for v in (s.a1, s.a2, s.a3))
        t = singleton(np.float32(0.25))
        assert (t.a1, t.a2, t.a3) == (0.25, 0.25, 0.25) and type(t.a2) is float

    def test_python_numbers_are_kept_as_given(self):
        s = TriangularFuzzySet(0, 1, 2.5)
        assert (type(s.a1), type(s.a2), type(s.a3)) == (int, int, float)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1.0", None, 1j, [1.0]])
    def test_wrong_types_are_named(self, bad):
        message = f"must be a real number, got {type(bad).__name__}$"
        with pytest.raises(InvalidInputError, match=message):
            TriangularFuzzySet(bad, bad, bad)
        with pytest.raises(InvalidInputError, match=message):
            TriangularFuzzySet(-1.0, bad, 1.0)
        with pytest.raises(InvalidInputError, match=message):
            singleton(bad)

    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, np.float32("inf"), np.float64("nan"), 10**400]
    )
    def test_non_finite_values_are_called_non_finite(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            TriangularFuzzySet(bad, bad, bad)
        with pytest.raises(InvalidInputError, match="non-finite"):
            singleton(bad)

    def test_an_integer_beyond_64_bits_is_named_in_words(self):
        # str() refuses an int of more than 4,300 digits
        words = "an integer beyond 64 bits"
        for bad in (10**400, -(10**5000)):
            with pytest.raises(InvalidInputError, match=f"^non-finite fuzzy set vertex: {words}$"):
                TriangularFuzzySet(bad, 1, 2)
            with pytest.raises(InvalidInputError, match=f"^non-finite sensitivity factor h: {words}$"):
                SimilarityParams(h=bad)

    def test_singleton_collapses_all_vertices(self):
        s = singleton(3.5)
        assert (s.a1, s.a2, s.a3) == (3.5, 3.5, 3.5)

    def test_representative_is_vertex_mean(self):
        assert representative(TriangularFuzzySet(1.0, 2.0, 6.0)) == 3.0
        assert representative(singleton(7.25)) == 7.25


class TestDistanceFactor:
    def test_matches_high_precision_sigmoid(self):
        # oracle: 1 - 1/(1 + exp(-h*d + omega)) at 50 decimal digits
        mpmath.mp.dps = 50
        for h, omega in [(5.0, 5.0), (1.0, 0.0), (12.0, 3.0), (0.5, 8.0)]:
            params = SimilarityParams(h=h, omega=omega)
            for d in [0.0, 0.01, 0.5, 1.0, 2.0, 10.0, 50.0]:
                want = float(1 - 1 / (1 + mpmath.exp(-h * mpmath.mpf(d) + omega)))
                got = distance_factor(d, params)
                assert got == pytest.approx(want, rel=1e-15), (h, omega, d)

    def test_value_at_zero_distance_with_defaults(self):
        # one ulp above the correctly rounded 1/(1+e^-5); pinned so any
        # change to the evaluation order shows up here
        assert distance_factor(0.0, SimilarityParams()) == 0.9933071490757153

    def test_strictly_decreasing_in_distance(self):
        params = SimilarityParams()
        grid = [i * 0.37 for i in range(200)]
        values = [distance_factor(d, params) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_underflows_to_zero_for_huge_distances(self):
        assert distance_factor(1e6, SimilarityParams()) == 0.0

    def test_exp_overflow_window_gives_zero(self):
        # math.exp overflows for h*d - omega above ~709.78; the value there
        # is 0.0, as 1 / (1 + inf) is in the vectorized kernel
        params = SimilarityParams(h=1.0, omega=0.0)
        assert distance_factor(709.78, params) > 0.0
        for d in (709.79, 710.0, 720.0, 744.9, 745.0, 746.0):
            assert distance_factor(d, params) == 0.0

    @given(d=st.floats(min_value=0, max_value=1e9), params=params_st)
    def test_range(self, d, params):
        assert 0.0 <= distance_factor(d, params) <= 1.0

    def test_h_controls_steepness(self):
        shallow = distance_factor(1.5, SimilarityParams(h=1.0, omega=1.0))
        steep = distance_factor(1.5, SimilarityParams(h=10.0, omega=1.0))
        assert steep < shallow

    def test_h_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            SimilarityParams(h=0.0)
        with pytest.raises(InvalidInputError):
            SimilarityParams(h=-2.0)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "5", None, 1j])
    def test_wrong_types_are_named(self, bad):
        # bool is an int, but h=True is a mistake, not a sensitivity of 1
        message = f"must be a real number, got {type(bad).__name__}$"
        with pytest.raises(InvalidInputError, match=f"sensitivity factor h {message}"):
            SimilarityParams(h=bad)
        with pytest.raises(InvalidInputError, match=f"offset omega {message}"):
            SimilarityParams(omega=bad)
        with pytest.raises(InvalidInputError, match=f"distance {message}"):
            distance_factor(bad, SimilarityParams())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64("nan")])
    def test_non_finite_values_are_called_non_finite(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite sensitivity factor h"):
            SimilarityParams(h=bad)
        with pytest.raises(InvalidInputError, match="non-finite offset omega"):
            SimilarityParams(omega=bad)
        with pytest.raises(InvalidInputError, match="non-finite distance"):
            distance_factor(bad, SimilarityParams())

    def test_numpy_real_scalars_are_taken_as_floats(self):
        params = SimilarityParams(h=np.int64(2), omega=np.float32(0.5))
        assert (params.h, params.omega) == (2.0, 0.5)
        assert type(params.h) is float and type(params.omega) is float
        assert params == SimilarityParams(h=2.0, omega=0.5)
        assert distance_factor(np.float32(0.25), params) == distance_factor(0.25, params)

    def test_negative_distance_is_refused(self):
        with pytest.raises(InvalidInputError, match=">= 0"):
            distance_factor(-0.5, SimilarityParams())


class TestSimilarity:
    def test_identical_sets_reduce_to_zero_distance_factor(self):
        params = SimilarityParams()
        a = TriangularFuzzySet(0.1, 0.4, 0.9)
        assert similarity(a, a, params) == distance_factor(0.0, params)

    @given(a=triangles, b=triangles, params=params_st)
    def test_symmetry(self, a, b, params):
        assert similarity(a, b, params) == similarity(b, a, params)

    @given(a=triangles, b=triangles, params=params_st)
    def test_range(self, a, b, params):
        assert 0.0 <= similarity(a, b, params) <= 1.0

    @given(a=triangles, params=params_st)
    def test_self_similarity_equals_zero_distance_factor(self, a, params):
        assert similarity(a, a, params) == distance_factor(0.0, params)

    def test_distant_sets_score_zero(self):
        a = singleton(0.0)
        b = singleton(100.0)
        assert similarity(a, b, SimilarityParams()) == 0.0

    def test_hand_computed_value(self):
        # vertex gap sum 0.9 -> shape 0.7; reps 0.3 apart with defaults
        a = TriangularFuzzySet(0.0, 0.1, 0.2)
        b = TriangularFuzzySet(0.3, 0.4, 0.5)
        shape = 1.0 - (0.3 + 0.3 + 0.3) / 3.0
        want = shape * distance_factor(0.3, SimilarityParams())
        assert similarity(a, b, SimilarityParams()) == pytest.approx(want, rel=1e-12)


class TestFiring:
    def test_min_of_dimensions(self):
        assert firing_degree([0.8, 0.3, 0.5]) == 0.3

    def test_single_dimension(self):
        assert firing_degree([0.42]) == 0.42

    def test_empty_is_an_error(self):
        with pytest.raises(InvalidInputError):
            firing_degree([])


class TestAggregate:
    def test_weighted_mean_is_exact_for_decimal_weights(self):
        # (0.2*2 + 0.6*10) / 0.8 must come out as exactly 8.0
        assert aggregate([0.2, 0.6], [2.0, 10.0]) == 8.0

    def test_single_rule_returns_its_consequent(self):
        assert aggregate([0.5], [7.0]) == 7.0

    def test_equal_firings_average_consequents(self):
        assert aggregate([0.3, 0.3], [4.0, 6.0]) == 5.0

    @given(
        firings=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=20),
        consequents=st.lists(finite, min_size=20, max_size=20),
    )
    def test_output_bounded_by_consequents(self, firings, consequents):
        consequents = consequents[: len(firings)]
        out = aggregate(firings, consequents)
        assert min(consequents) - 1e-9 <= out <= max(consequents) + 1e-9

    def test_zero_total_firing_is_an_error(self):
        with pytest.raises(ZeroFiringError):
            aggregate([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(InvalidInputError):
            aggregate([0.5], [1.0, 2.0])


class TestScalarIntake:
    """The scalar references refuse what they cannot read, naming it."""

    set_a = TriangularFuzzySet(0.1, 0.2, 0.3)

    @pytest.mark.parametrize("call, named", [
        (lambda s: similarity(1, s, SimilarityParams()), "a is not a TriangularFuzzySet (type int)"),
        (lambda s: similarity(s, (0, 1, 2), SimilarityParams()),
         "b is not a TriangularFuzzySet (type tuple)"),
        (lambda s: similarity(s, s, 5), "params is not a SimilarityParams (type int)"),
        (lambda s: distance_factor(0.5, None), "params is not a SimilarityParams (type NoneType)"),
        (lambda s: representative(5), "s is not a TriangularFuzzySet (type int)"),
    ])
    def test_a_wrong_type_is_refused(self, call, named):
        with pytest.raises(InvalidInputError) as info:
            call(self.set_a)
        assert str(info.value) == named

    def test_far_sets_with_wrong_params_are_refused_before_the_shape_floor(self):
        far = TriangularFuzzySet(10.0, 11.0, 12.0)
        with pytest.raises(InvalidInputError, match="params"):
            similarity(self.set_a, far, "defaults")

    @pytest.mark.parametrize("values, named", [
        ([0.5, math.nan], "non-finite per_dim_similarities[1]: nan"),
        ([math.nan, 0.5], "non-finite per_dim_similarities[0]: nan"),
        ([0.5, math.inf], "non-finite per_dim_similarities[1]: inf"),
        ([0.5, "0.1"], "per_dim_similarities[1] must be a real number, got str"),
        ([True], "per_dim_similarities[0] must be a real number, got bool"),
    ])
    def test_firing_degree_refuses_what_it_cannot_read(self, values, named):
        with pytest.raises(InvalidInputError) as info:
            firing_degree(values)
        assert str(info.value) == named

    @pytest.mark.parametrize("firings, consequents, named", [
        ([0.5, math.nan], [1, 2], "non-finite firings[1]: nan"),
        ([0.5, 0.5], [1.0, math.nan], "non-finite consequents[1]: nan"),
        ([0.5, -1.0], [1, 2], "firings[1] must be >= 0, got -1.0"),
        ([0.5, 0.5], [1, None], "consequents[1] must be a real number, got NoneType"),
        ([False, 0.5], [1, 2], "firings[0] must be a real number, got bool"),
    ])
    def test_aggregate_refuses_what_it_cannot_read(self, firings, consequents, named):
        with pytest.raises(InvalidInputError) as info:
            aggregate(firings, consequents)
        assert str(info.value) == named

    @pytest.mark.parametrize("firings, consequents, named", [
        ([1e308, 1e308], [1, 2], "total firing degree overflows the float range"),
        ([1e308, 1e308], [0, 0], "total firing degree overflows the float range"),
        ([1.0, 1e308], [1e308, 1e308], "firing-weighted sum overflows the float range"),
        ([1.0, 1e308], [1e308, -1e308], "firing-weighted sum overflows the float range"),
    ])
    def test_aggregate_refuses_sums_beyond_the_float_range(self, firings, consequents, named):
        with pytest.raises(InvalidInputError) as info:
            aggregate(firings, consequents)
        assert str(info.value) == named

    @pytest.mark.parametrize("a, b", [
        ((1e308,) * 3, (1e308,) * 3),
        ((0.0, 1e308, 1e308), (1.0, 1e308, 1e308)),
        ((-1e308,) * 3, (-1e308,) * 3),
    ])
    def test_similarity_names_a_vertex_mean_beyond_the_float_range(self, a, b):
        a, b = TriangularFuzzySet(*a), TriangularFuzzySet(*b)
        with pytest.raises(InvalidInputError) as info:
            similarity(a, b, SimilarityParams())
        assert str(info.value) == (
            f"a: the vertex mean of ({a.a1}, {a.a2}, {a.a3}) is beyond the float range"
        )

    def test_far_sets_beyond_the_float_range_still_score_zero(self):
        huge = TriangularFuzzySet(1e308, 1e308, 1e308)
        assert similarity(self.set_a, huge, SimilarityParams()) == 0.0

    def test_weights_above_one_and_numpy_scalars_are_read(self):
        assert aggregate([np.float64(2.0), 1], [np.int64(4), 7.0]) == 5.0
        assert firing_degree(np.array([0.75, 0.25])) == 0.25

    def test_coincident_sets_score_the_zero_distance_factor_unclipped(self):
        # the dropped clip to [0, 1] could not bind: the product is the factor itself
        params = SimilarityParams(h=1.0, omega=50.0)
        assert similarity(self.set_a, self.set_a, params) == distance_factor(0.0, params) == 1.0
