import builtins
import dataclasses
import json
import math
import numbers
import operator
import re
from array import array as buffer_array
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import inference
from fuzzyloc.cli import main
from fuzzyloc.data import LABEL_RANGE, Dataset, Normalization, fit_normalization
from fuzzyloc.errors import DataError, InvalidInputError
from fuzzyloc.fuzzy import (
    SimilarityParams,
    TriangularFuzzySet,
    aggregate,
    firing_degree,
    representative,
    similarity,
    singleton,
    vertex_means,
)
from fuzzyloc.inference import (
    BatchEvaluation,
    Predictions,
    discretize,
    predict,
    predict_batch,
    predict_fuzzy,
    predict_rows,
)
from fuzzyloc.pipeline import run_experiment, train_rulebase
from fuzzyloc.rulebase import PER_CLASS, Rule, RuleBase, extract_rules, save_rulebase
from fuzzyloc.synth import write_csv

from conftest import identity_normalized, predictions_of, random_rulebase

EPS = 2.0**-52


def onedim_rulebase(rule_specs, universe=(1, 10)):
    """Rule base over a single identity-normalized feature "x".

    rule_specs: list of (triangle vertices, consequent).
    """
    return RuleBase(
        rules=tuple(
            Rule(
                antecedents=(TriangularFuzzySet(*vertices),),
                consequent=consequent,
                support_count=1,
            )
            for vertices, consequent in rule_specs
        ),
        params=SimilarityParams(),
        feature_names=("x",),
        normalization=Normalization(mins=(0.0,), maxs=(1.0,)),
        selected_features=(0,),
        label_universe=tuple(range(universe[0], universe[1] + 1)),
        consequent_strategy=PER_CLASS,
        seed=0,
    )


class TestDiscretize:
    def test_nearest_member(self):
        assert discretize(4.9, (1, 2, 3, 4, 5)) == 5
        assert discretize(1.2, (1, 2, 3)) == 1

    def test_midpoint_goes_to_smaller_label(self):
        assert discretize(4.5, tuple(range(1, 11))) == 4
        assert discretize(1.5, (1, 2)) == 1
        assert discretize(0.0, (-1, 1)) == -1

    def test_a_gamma_just_above_a_midpoint_goes_up(self):
        # gamma + 1 rounds to 1.0 in float64, but the midpoint 0 is exact
        assert discretize(1e-20, (-1, 1)) == 1
        assert discretize(-1e-20, (-1, 1)) == -1
        assert discretize(2.0**-1074, (-3, 3)) == 3

    def test_exact_member_is_returned_unchanged(self):
        for label in (1, 5, 10):
            assert discretize(float(label), tuple(range(1, 11))) == label

    def test_output_clips_to_universe_edges(self):
        assert discretize(-3.0, (1, 2, 3)) == 1
        assert discretize(99.0, (1, 2, 3)) == 3
        assert discretize(2.0**53, (-(2**52), 2**52)) == 2**52

    @pytest.mark.parametrize("universe, named", [
        ((), "label_universe must be non-empty"),
        ((1.5, 2.5), "label_universe[0] must be an integer, got float"),
        ((3, 1), "label_universe must be strictly increasing, but label_universe[1] = 1 follows 3"),
        ((0, True), "label_universe[1] must be an integer, got bool"),
        ((1, 2**52 + 1), "label_universe[1] must be <= 4503599627370496, got 4503599627370497"),
        ((-(2**52) - 1, 1), "label_universe[0] must be >= -4503599627370496, got -4503599627370497"),
    ])
    def test_a_universe_it_cannot_read_is_refused(self, universe, named):
        with pytest.raises(InvalidInputError) as info:
            discretize(2.0, universe)
        assert str(info.value) == named

    @pytest.mark.parametrize("gamma, named", [
        (math.nan, "non-finite gamma: nan"),
        (math.inf, "non-finite gamma: inf"),
        (-math.inf, "non-finite gamma: -inf"),
        ("2", "gamma must be a real number, got str"),
        (True, "gamma must be a real number, got bool"),
    ])
    def test_a_gamma_it_cannot_read_is_refused(self, gamma, named):
        with pytest.raises(InvalidInputError) as info:
            discretize(gamma, (1, 2, 3))
        assert str(info.value) == named

    def test_a_numpy_universe_is_read_like_a_tuple(self):
        assert discretize(2.4, np.array([1, 2, 3])) == 2
        assert discretize(np.float64(2.6), range(1, 4)) == 3
        with pytest.raises(InvalidInputError, match="^label_universe must be non-empty$"):
            discretize(1.0, np.array([], dtype=np.int64))

    @given(data=st.data())
    def test_matches_the_linear_scan(self, data):
        universe = tuple(
            sorted(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40, unique=True)))
        )
        i = data.draw(st.integers(0, len(universe) - 1))
        gamma = data.draw(
            st.one_of(
                st.floats(min_value=-2e6, max_value=2e6),
                st.just(float(universe[i])),
                st.just((universe[i] + universe[min(i + 1, len(universe) - 1)]) / 2.0),
            )
        )
        linear = min(universe, key=lambda u: (abs(gamma - u), u))
        assert discretize(gamma, universe) == linear


def universe_rulebase(universe):
    """A one-rule rule base whose label universe is universe."""
    return RuleBase(
        antecedents=[[(0.0, 0.5, 1.0)]],
        consequents=[float(universe[0])],
        supports=[1],
        params=SimilarityParams(),
        feature_names=("x",),
        normalization=Normalization(mins=(0.0,), maxs=(1.0,)),
        selected_features=(0,),
        label_universe=universe,
        consequent_strategy=PER_CLASS,
        seed=0,
    )


def gammas_around(universe):
    """Every label, the midpoint of every neighbouring pair, the floats up to
    two steps either side of each, and values beyond both edges."""
    centres = [float(u) for u in universe]
    centres += [(a + b) / 2 for a, b in zip(universe, universe[1:])]
    centres += [universe[0] - 1.0, universe[-1] + 1.0, 0.0, -0.0]
    centres += [sign * v for sign in (1, -1) for v in (2.0**53, 2.0**63, 2.0**64, 1e300)]
    gammas = []
    for c in centres:
        below = above = c
        gammas.append(c)
        for _ in range(2):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            gammas += [below, above]
    return gammas


@st.composite
def range_universes(draw):
    """Ascending universes of distinct labels in LABEL_RANGE around a
    centre: mixed signs, gaps from 1 to the whole range, and at times
    either end of the range."""
    lo, hi = LABEL_RANGE[0], LABEL_RANGE[-1]
    centre = draw(st.sampled_from([0, 2**51, -(2**51), hi - 2**20, lo]))
    offsets = st.integers(-(2**20), 2**20) | st.integers(lo, hi)
    labels = draw(st.lists(offsets.map(lambda o: centre + o).filter(lambda u: u in LABEL_RANGE),
                           min_size=1, max_size=30, unique=True))
    ends = draw(st.sets(st.sampled_from([lo, hi])))
    return tuple(sorted(set(labels) | ends))


def nearest_exactly(gamma, universe):
    """The label nearest gamma in exact rational arithmetic, the smaller
    one on a tie."""
    exact = Fraction(gamma)
    return min(universe, key=lambda label: (abs(exact - label), label))


def assert_thresholds(universe):
    """Each Serving threshold is the first float whose discretize label is
    its label or beyond; returns the thresholds."""
    thresholds = universe_rulebase(universe).serving.thresholds
    assert thresholds.shape == (len(universe) - 1,)
    for label, t in zip(universe[1:], thresholds.tolist()):
        assert discretize(t, universe) >= label > discretize(math.nextafter(t, -math.inf), universe)
    return thresholds


class TestNearestLabels:
    """The vectorized nearest-label step of every prediction call gives
    discretize's label for every gamma, one row per gamma."""

    @pytest.mark.parametrize("universe", [
        tuple(range(1, 11)),
        (5,),
        (-7, -3, 0, 2, 9, 40),
        (-1, 1),
        (-18014398509481, 1, 3),
        (-2**52, -2**52 + 1, -2**52 + 2, -2**52 + 1000, -2**52 + 5000),
        (2**52 - 5000, 2**52 - 1025, 2**52 - 1024, 2**52 - 3, 2**52 - 2, 2**52 - 1, 2**52),
        (-2**52, -1, 0, 2**52),
    ], ids=["range", "single", "gaps", "around zero", "mixed signs", "low end", "high end",
            "both ends"])
    def test_every_gamma_gets_the_label_discretize_gives(self, universe):
        rb = universe_rulebase(universe)
        gammas = gammas_around(universe)
        got = inference._nearest_labels(np.array(gammas), rb.serving)
        assert got.dtype == np.int64
        assert got.tolist() == [discretize(g, universe) for g in gammas]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_universe_in_the_label_range(self, data):
        universe = data.draw(range_universes())
        gammas = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(gammas_around(universe)), max_size=40))
        got = inference._nearest_labels(np.array(gammas, dtype=float), universe_rulebase(universe).serving)
        assert got.tolist() == [discretize(g, universe) for g in gammas]

    @settings(max_examples=200, deadline=None)
    @given(universe=range_universes())
    def test_each_threshold_is_the_first_float_of_its_label(self, universe):
        assert_thresholds(universe)

    @settings(max_examples=300, deadline=None)
    @given(universe=range_universes())
    def test_both_give_the_exactly_nearest_label(self, universe):
        # labels, midpoints, thresholds and the float below each, and
        # gammas on either side of 0 closer to it than any float step of a label
        serving = universe_rulebase(universe).serving
        marks = [float(u) for u in universe] + [(a + b) / 2 for a, b in zip(universe, universe[1:])]
        marks += serving.thresholds.tolist() + [1e-20, -1e-20]
        gammas = marks + [math.nextafter(g, -math.inf) for g in marks]
        want = [nearest_exactly(g, universe) for g in gammas]
        assert [discretize(g, universe) for g in gammas] == want
        assert inference._nearest_labels(np.array(gammas), serving).tolist() == want

    def test_the_thresholds_are_the_floats_just_above_the_midpoints(self):
        thresholds = assert_thresholds((-(2**52), -1, 1, 2, 2**52))
        assert thresholds.tolist() == [
            math.nextafter(-(2.0**51) - 0.5, math.inf), 2.0**-1074, 1.5 + 2.0**-52,
            math.nextafter(2.0**51 + 1, math.inf),
        ]

    def test_serving_arrays_are_read_only(self, corridor_rulebase):
        subset_rb = RuleBase(
            antecedents=[[(0.0, 0.5, 1.0)]], consequents=[3.0], supports=[1],
            params=SimilarityParams(), feature_names=("x", "y", "z"),
            normalization=Normalization(mins=(0.0, 2.0, 0.0), maxs=(1.0, 2.0, 1.0)),
            selected_features=(2,), label_universe=(1, 2, 3, 5), consequent_strategy=PER_CLASS,
            seed=0,
        )
        assert corridor_rulebase.serving.selected is None
        assert corridor_rulebase.serving.constant is None
        assert subset_rb.serving.selected.tolist() == [2]
        assert subset_rb.serving.constant.tolist() == [False, True, False]
        for rb in (corridor_rulebase, subset_rb):
            for array in rb.serving:
                assert array is None or not array.flags.writeable


class TestPredict:
    def test_dominant_rule_wins(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0), ((7.0, 7.5, 8.0), 9.0)])
        p = predict(rb, [0.2])
        assert p.label == 2
        assert not p.fallback_used
        assert p.gamma == pytest.approx(2.0, abs=1e-9)

    def test_equal_pull_lands_between_consequents(self):
        # unseen label 5 emerges although no rule carries it
        rb = onedim_rulebase([((0.4, 0.4, 0.4), 4.0), ((0.6, 0.6, 0.6), 6.0)])
        p = predict(rb, [0.5])
        assert p.gamma == pytest.approx(5.0, rel=1e-12)
        assert p.label == 5
        assert p.total_firing > 0

    def test_fallback_picks_nearest_rule_by_representative(self):
        rb = onedim_rulebase([((0.3, 0.4, 0.5), 4.0), ((0.5, 0.6, 0.7), 6.0)])
        p = predict(rb, [100.0])
        assert p.fallback_used
        assert p.total_firing == 0.0
        assert p.gamma == 6.0
        assert p.label == 6

    def test_gamma_stays_between_consequents_without_fallback(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            rb = random_rulebase(rng)
            raw = [
                rng.uniform(lo, hi if hi > lo else lo + 1.0)
                for lo, hi in zip(rb.normalization.mins, rb.normalization.maxs)
            ]
            p = predict(rb, raw)
            assert p.label in rb.label_universe
            if not p.fallback_used:
                consequents = [r.consequent for r in rb.rules]
                assert min(consequents) - 1e-9 <= p.gamma <= max(consequents) + 1e-9

    def test_deterministic(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0), ((0.6, 0.7, 0.8), 8.0)])
        assert predict(rb, [0.33]) == predict(rb, [0.33])

    def test_normalization_is_applied_to_raw_inputs(self):
        rb = RuleBase(
            rules=(
                Rule(antecedents=(singleton(0.0),), consequent=1.0, support_count=1),
                Rule(antecedents=(singleton(1.0),), consequent=3.0, support_count=1),
            ),
            params=SimilarityParams(),
            feature_names=("rssi",),
            normalization=Normalization(mins=(-80.0,), maxs=(-20.0,)),
            selected_features=(0,),
            label_universe=(1, 2, 3),
            consequent_strategy=PER_CLASS,
            seed=0,
        )
        assert predict(rb, [-80.0]).label == 1
        assert predict(rb, [-20.0]).label == 3
        assert predict(rb, [-50.0]).label == 2  # halfway between the cores

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda rb: predict(rb, [0.1, 0.2]), "observation has 2 features"),
            (lambda rb: predict(rb, []), "observation has 0 features"),
            (lambda rb: predict_fuzzy(rb, [singleton(0.1)] * 3), "observation has 3 features"),
            (lambda rb: predict_fuzzy(rb, iter(())), "observation has 0 features"),
            (lambda rb: list(predict_rows(rb, [[0.1, 0.2]])), "each row has 2 features"),
            (lambda rb: list(predict_rows(rb, np.empty((0, 3)))), "each row has 3 features"),
        ],
    )
    def test_arity_mismatch(self, call, message):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0)])
        with pytest.raises(InvalidInputError, match=f"^{message}, rule base expects 1$"):
            call(rb)

    def test_non_finite_input(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0)])
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                predict(rb, [bad])


class TestPredictFuzzy:
    def test_singleton_observation_matches_crisp_entry_point(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0), ((0.6, 0.7, 0.8), 8.0)])
        assert predict_fuzzy(rb, [singleton(0.42)]) == predict(rb, [0.42])

    def test_triangular_observation_is_normalized_vertex_wise(self):
        rb = RuleBase(
            rules=(Rule(antecedents=(singleton(0.5),), consequent=2.0, support_count=1),),
            params=SimilarityParams(),
            feature_names=("rssi",),
            normalization=Normalization(mins=(0.0,), maxs=(10.0,)),
            selected_features=(0,),
            label_universe=(1, 2, 3),
            consequent_strategy=PER_CLASS,
            seed=0,
        )
        wide = predict_fuzzy(rb, [TriangularFuzzySet(4.0, 5.0, 6.0)])
        exact = predict_fuzzy(rb, [singleton(5.0)])
        assert wide.label == exact.label == 2
        assert wide.total_firing < exact.total_firing  # vertex spread costs similarity


class TestMonotoneDominance:
    @given(
        firings=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8
        ),
        consequents=st.lists(
            st.floats(min_value=-50, max_value=50), min_size=8, max_size=8
        ),
        index=st.integers(min_value=0, max_value=7),
        boost=st.floats(min_value=1.1, max_value=100.0),
    )
    def test_boosting_a_rule_pulls_output_toward_it(self, firings, consequents, index, boost):
        consequents = consequents[: len(firings)]
        index %= len(firings)
        before = aggregate(firings, consequents)
        boosted = list(firings)
        boosted[index] *= boost
        after = aggregate(boosted, consequents)
        target = consequents[index]
        assert abs(after - target) <= abs(before - target) + 1e-9


class TestPredictBatch:
    def cores_setup(self):
        features = [
            [0.00, 0.05],
            [0.10, 0.00],
            [0.05, 0.10],
            [0.45, 0.50],
            [0.55, 0.45],
            [0.50, 0.55],
            [0.90, 0.95],
            [1.00, 0.90],
            [0.95, 1.00],
        ]
        labels = [1, 1, 1, 5, 5, 5, 9, 9, 9]
        train = identity_normalized(features, labels)
        # steep distance decay so each core is dominated by its own rule
        rb = extract_rules(train, k_max=1, seed=0, params=SimilarityParams(h=50.0, omega=5.0))
        cores = [[a.a2 for a in rule.antecedents] for rule in rb.rules]
        truth = [int(rule.consequent) for rule in rb.rules]
        return rb, Dataset(features=cores, labels=truth, feature_names=train.feature_names)

    def test_rule_cores_predict_their_own_class(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        assert result.accuracy == 1.0
        assert result.n_correct == result.n_instances == 3
        assert result.fallback_count == 0

    def test_confusion_matrix_counts_each_instance_once(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        assert sum(map(sum, result.confusion)) == result.n_instances
        position = {label: i for i, label in enumerate(result.label_universe)}
        for truth, pred in zip(result.truths, result.predictions):
            assert result.confusion[position[truth]][position[pred.label]] >= 1

    def test_empty_dataset_reports_no_instances(self):
        rb, cores = self.cores_setup()
        empty = Dataset(
            features=np.empty((0, 2)), labels=np.empty(0, dtype=int),
            feature_names=cores.feature_names,
        )
        result = predict_batch(rb, empty)
        assert result.no_instances
        assert result.n_instances == 0
        assert math.isnan(result.accuracy)
        assert math.isnan(result.mean_abs_error)
        assert sum(map(sum, result.confusion)) == 0

    def test_truth_outside_universe_is_a_data_error(self):
        rb, cores = self.cores_setup()
        stray = Dataset(
            features=[[0.0, 0.0]], labels=[77], feature_names=cores.feature_names
        )
        with pytest.raises(DataError, match="77"):
            predict_batch(rb, stray)
        two_strays = Dataset(
            features=[[0.0, 0.0]] * 4, labels=[1, 78, 5, 77], feature_names=cores.feature_names
        )
        with pytest.raises(
            DataError, match="^instance 1: truth label 78 is outside the label universe$"
        ):
            predict_batch(rb, two_strays)

    def test_a_normalized_dataset_is_refused(self):
        # the rule base normalizes raw rows itself; a dataset already
        # normalized would be normalized twice and scored without complaint
        rb, cores = self.cores_setup()
        with pytest.raises(
            InvalidInputError,
            match="^prediction takes raw rows: the rule base normalizes them itself, "
            "so a normalized dataset would be normalized twice$",
        ):
            predict_batch(rb, fit_normalization(cores))

    def test_feature_name_mismatch_is_rejected(self):
        rb, cores = self.cores_setup()
        renamed = Dataset(
            features=cores.features, labels=cores.labels, feature_names=("a", "b")
        )
        with pytest.raises(InvalidInputError):
            predict_batch(rb, renamed)

    def test_per_instance_errors_carry_the_index(self):
        rb, cores = self.cores_setup()
        poisoned = Dataset(
            features=[[0.0, 0.0], [math.inf, 0.0]],
            labels=[1, 1],
            feature_names=cores.feature_names,
        )
        with pytest.raises(InvalidInputError, match="instance 1"):
            predict_batch(rb, poisoned)

    def test_scores_follow_replaced_truths_and_predictions(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        # a far row fires nothing and falls back; the other truths are off by one
        other = Dataset(
            features=np.vstack([cores.features, [[50.0, 50.0]]]),
            labels=[label + 1 if label < 9 else 8 for label in cores.labels.tolist()] + [9],
            feature_names=cores.feature_names,
        )
        fresh = predict_batch(rb, other)
        assert result.confusion  # cached before the replace
        replaced = dataclasses.replace(result, truths=fresh.truths, predictions=fresh.predictions)
        assert [f.name for f in dataclasses.fields(replaced)] == [
            "truths", "predictions", "label_universe"
        ]
        scores = ["n_instances", "n_correct", "accuracy", "mean_abs_error", "fallback_count",
                  "confusion"]
        for name in scores:
            assert getattr(replaced, name) == getattr(fresh, name) != getattr(result, name), name
        assert replaced.n_within(1) == fresh.n_within(1) == 4

    def test_confusion_is_built_once(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        assert "confusion" not in vars(result)
        assert result.confusion is result.confusion
        assert vars(result)["confusion"] is result.confusion

    def test_mean_abs_error_matches_manual_recomputation(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        manual = reduce(
            operator.add, [abs(p.gamma - t) for t, p in zip(result.truths, result.predictions)]
        ) / result.n_instances
        assert result.mean_abs_error == manual


def reference_scores(evaluation):
    """The per-row loops that scored a BatchEvaluation before its scores
    became array expressions, the sum of errors running left to right."""
    pairs = list(zip(evaluation.truths, evaluation.predictions))
    errors = [abs(p.gamma - t) for t, p in pairs]
    position = {label: i for i, label in enumerate(evaluation.label_universe)}
    counts = [[0] * len(position) for _ in position]
    for truth, pred in pairs:
        counts[position[truth]][position[pred.label]] += 1
    return {
        "n_within": [sum(1 for t, p in pairs if abs(p.label - t) <= k) for k in WITHIN],
        "mean_abs_error": reduce(operator.add, errors) / len(errors) if errors else math.nan,
        "fallback_count": sum(1 for p in evaluation.predictions if p.fallback_used),
        "confusion": tuple(map(tuple, counts)),
    }


def array_scores(evaluation):
    return {
        "n_within": [evaluation.n_within(k) for k in WITHIN],
        "mean_abs_error": evaluation.mean_abs_error,
        "fallback_count": evaluation.fallback_count,
        "confusion": evaluation.confusion,
    }


def assert_same_scores(evaluation):
    got, want = array_scores(evaluation), reference_scores(evaluation)
    if evaluation.no_instances:  # NaN equals nothing, itself included
        assert math.isnan(got.pop("mean_abs_error")) and math.isnan(want.pop("mean_abs_error"))
    assert got == want


# distances k to count within, up to the widest gap of two labels, 2**53,
# and beyond (a negative k is refused: see test_n_within_takes_a_count)
WITHIN = (0, 1, 2, 2**53 - 1, 2**53, 2**63, 2**64, 10**30)
RANGE_ENDS = (-(2**52), -(2**52) + 1, -1, 0, 1, 2**52 - 1, 2**52)


@st.composite
def evaluations(draw):
    """A BatchEvaluation over an ascending universe that may hold both ends
    of the label range, with fallback rows among its predictions, empty at
    times."""
    label = st.one_of(st.sampled_from(RANGE_ENDS), st.integers(LABEL_RANGE[0], LABEL_RANGE[-1]))
    universe = tuple(sorted(draw(st.lists(label, min_size=1, max_size=6, unique=True))))
    member = st.sampled_from(universe)
    total = st.one_of(st.just(0.0), st.floats(0.0, 10.0))  # a row with total 0 fell back
    rows = draw(st.lists(st.tuples(member, st.floats(-1e20, 1e20), member, total), max_size=8))
    truths = tuple(row[0] for row in rows)
    return BatchEvaluation(truths, predictions_of([row[1:] for row in rows]), universe)


class TestArrayScores:
    """Each score of a BatchEvaluation is an array expression that must
    equal the per-row loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(evaluation=evaluations())
    def test_scores_equal_the_per_row_loops(self, evaluation):
        assert_same_scores(evaluation)

    def test_labels_at_both_ends_of_the_range_are_2_to_the_53_apart(self):
        lo, hi = LABEL_RANGE[0], LABEL_RANGE[-1]
        evaluation = BatchEvaluation(
            (lo, hi, lo, hi),
            predictions_of([(0.0, hi, 1.0), (0.0, lo, 1.0), (0.0, lo, 1.0), (0.0, hi, 0.0)]),
            (lo, hi),
        )
        # the widest gap; a k at or past it counts every row
        within = [evaluation.n_within(k) for k in (0, 1, 2**53 - 1, 2**53, 2**64, 10**30)]
        assert within == [2, 2, 2, 4, 4, 4]
        assert evaluation.confusion == ((1, 1), (1, 1))
        assert evaluation.fallback_count == 1
        assert_same_scores(evaluation)

    @pytest.mark.parametrize(
        "k, message",
        [
            (-1, "k must be >= 0, got -1"),
            (1.5, "k must be an integer, got float"),
            (1.0, "k must be an integer, got float"),
            (True, "k must be an integer, got bool"),
            ("1", "k must be an integer, got str"),
        ],
    )
    def test_n_within_takes_a_count(self, k, message):
        evaluation = BatchEvaluation((1, 2), predictions_of([(0.0, 1, 1.0), (0.0, 1, 1.0)]), (1, 2))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            evaluation.n_within(k)
        assert [evaluation.n_within(k) for k in (0, np.int64(1), np.uint64(2))] == [1, 2, 2]

    def test_an_empty_evaluation(self):
        evaluation = BatchEvaluation((), predictions_of([], n_rules=3), (1, 2, 3))
        assert evaluation.no_instances and evaluation.fallback_count == 0
        assert evaluation.confusion == ((0, 0, 0),) * 3
        assert_same_scores(evaluation)

    def test_a_batch_with_fallback_rows(self, corridor, corridor_rulebase):
        rb = corridor_rulebase
        rows = corridor.features.copy()
        rows[::7, 1] = 100.0  # +100 non-detection sentinels force fallbacks
        labels = np.clip(corridor.labels, rb.label_universe[0], rb.label_universe[-1])
        evaluation = predict_batch(
            rb, Dataset(features=rows, labels=labels, feature_names=rb.feature_names)
        )
        assert evaluation.fallback_count > 0
        assert_same_scores(evaluation)


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b))) if a != b else 0.0


@st.composite
def scenarios(draw):
    """A random rule base and one observation in raw units.

    The observation is crisp, triangular, far outside the training range
    (so nothing fires and the fallback decides), or placed so that
    h*d - omega lands where exp overflows while the shape term is still
    positive.
    """
    kind = draw(st.sampled_from(["crisp", "triangle", "far", "overflow"]))
    n_features = draw(st.integers(1, 4))
    selected = draw(
        st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features, unique=True)
    )
    if kind == "overflow":
        mins, spans = [0.0] * n_features, [1.0] * n_features
        h, omega = draw(st.floats(800.0, 5000.0)), draw(st.floats(-10.0, 50.0))
    else:
        mins = draw(st.lists(st.floats(-100.0, 100.0), min_size=n_features, max_size=n_features))
        spans = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.5, 50.0)),
                min_size=n_features,
                max_size=n_features,
            )
        )
        h, omega = draw(st.floats(0.1, 50.0)), draw(st.floats(-10.0, 50.0))
    lo = draw(st.integers(-5, 5))
    universe = tuple(range(lo, lo + draw(st.integers(1, 12))))
    unit = st.floats(-0.5, 1.5)
    rules = tuple(
        Rule(
            antecedents=tuple(
                TriangularFuzzySet(*sorted(draw(st.tuples(unit, unit, unit))))
                for _ in selected
            ),
            consequent=draw(st.floats(float(universe[0]), float(universe[-1]))),
            support_count=1,
        )
        for _ in range(draw(st.integers(1, 6)))
    )
    rb = RuleBase(
        rules=rules,
        params=SimilarityParams(h=h, omega=omega),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        normalization=Normalization(
            mins=tuple(mins), maxs=tuple(m + s for m, s in zip(mins, spans))
        ),
        selected_features=tuple(selected),
        label_universe=universe,
        consequent_strategy=PER_CLASS,
        seed=0,
    )

    if kind == "far":
        unit = st.one_of(st.floats(-1e4, -50.0), st.floats(50.0, 1e4))
    normalized = [sorted(draw(st.tuples(unit, unit, unit))) for _ in range(n_features)]
    if kind in ("crisp", "far"):
        normalized = [[v[1]] * 3 for v in normalized]
    if kind == "overflow":
        # crisp, one rule-dimension pair at distance d with h*d - omega in
        # (709.78, 745]: shape 1 - d stays positive, math.exp overflows
        x = draw(st.floats(711.0, 744.0))
        d = (x + omega) / h
        target = representative(draw(st.sampled_from(rules)).antecedents[0])
        normalized[selected[0]] = [target + d] * 3
    observation = [
        TriangularFuzzySet(*(m + v * s for v in vertices))
        for m, s, vertices in zip(mins, spans, normalized)
    ]
    return rb, observation


def scalar_reference(rb, observation):
    """Per-rule firings, gamma (None when nothing fires) and the nearest rule
    distances, from the scalar functions in fuzzy.py."""
    norm = rb.normalization
    obs = [
        TriangularFuzzySet(*(norm.apply_value(v, j) for v in (s.a1, s.a2, s.a3)))
        for j, s in ((j, observation[j]) for j in rb.selected_features)
    ]
    firings = [
        firing_degree(similarity(o, a, rb.params) for o, a in zip(obs, rule.antecedents))
        for rule in rb.rules
    ]
    gamma = aggregate(firings, rb.consequents.tolist()) if sum(firings) > 0.0 else None
    obs_rep = [representative(o) for o in obs]
    distances = [
        math.dist(obs_rep, [representative(a) for a in rule.antecedents]) for rule in rb.rules
    ]
    return firings, gamma, distances


class TestKernelMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(scenario=scenarios())
    def test_firings_gamma_label_and_fallback(self, scenario):
        rb, observation = scenario
        firings, gamma, distances = scalar_reference(rb, observation)
        p = predict_fuzzy(rb, observation)

        assert len(p.per_rule_firings) == rb.n_rules
        for got, want in zip(p.per_rule_firings, firings):
            assert ulps_apart(got, want) <= 4, (got, want)
        assert p.fallback_used == (gamma is None)
        consequents = rb.consequents.tolist()
        if gamma is None:
            # nearest rule; a near tie may go either way between the two
            # distance formulas, so accept any rule at the minimal distance
            near = [
                c for c, dist in zip(consequents, distances) if dist <= min(distances) * (1 + 1e-12)
            ]
            assert p.gamma in near
            assert p.label == discretize(p.gamma, rb.label_universe)
        else:
            # 16 ulp at the scale of the consequents: the blend of
            # mixed-sign consequents can cancel to well below that scale
            scale = max([1.0] + [abs(c) for c in consequents])
            assert abs(p.gamma - gamma) <= 16 * EPS * scale
            midpoint = math.floor(gamma) + 0.5
            if abs(gamma - midpoint) > 16 * EPS * scale:
                assert p.label == discretize(gamma, rb.label_universe)

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_crisp_entry_point_agrees_with_singletons(self, scenario):
        rb, observation = scenario
        row = [s.a2 for s in observation]
        assert predict(rb, row) == predict_fuzzy(rb, [singleton(v) for v in row])

    def test_overflow_window_falls_back_instead_of_raising(self):
        # h*d - omega = 720 for the only rule: exp overflows, nothing fires
        rb = RuleBase(
            rules=(Rule(antecedents=(singleton(0.0),), consequent=3.0, support_count=1),),
            params=SimilarityParams(h=1000.0, omega=0.0),
            feature_names=("x",),
            normalization=Normalization(mins=(0.0,), maxs=(1.0,)),
            selected_features=(0,),
            label_universe=(1, 2, 3),
            consequent_strategy=PER_CLASS,
            seed=0,
        )
        assert similarity(singleton(0.72), singleton(0.0), rb.params) == 0.0
        p = predict(rb, [0.72])
        assert p.fallback_used
        assert p.per_rule_firings.tolist() == [0.0]
        assert p.gamma == 3.0


class TestOnePredictionPath:
    """Per-row predict, predict_batch and `fuzzyloc predict` share one kernel,
    so the block size must not change a single bit of the output."""

    @pytest.mark.parametrize("block_elements", [1, 10**7])
    def test_batch_cli_and_per_row_are_bit_identical(
        self, block_elements, corridor, corridor_rulebase, tmp_path, monkeypatch
    ):
        rb = corridor_rulebase
        rows = corridor.features.copy()
        rows[::17, 2] = 100.0  # +100 non-detection sentinels force fallbacks
        labels = np.clip(corridor.labels, rb.label_universe[0], rb.label_universe[-1])
        data = Dataset(features=rows, labels=labels, feature_names=rb.feature_names)
        rb_path, csv_path, out_path = tmp_path / "rb.json", tmp_path / "q.csv", tmp_path / "p.json"
        save_rulebase(rb, rb_path)
        write_csv(data, csv_path)

        monkeypatch.setattr(inference, "_BLOCK_ELEMENTS", block_elements)
        per_row = [predict(rb, row) for row in rows]
        assert any(p.fallback_used for p in per_row)
        expected = [(p.label, p.gamma, p.fallback_used) for p in per_row]
        batch = predict_batch(rb, data).predictions
        assert [(p.label, p.gamma, p.fallback_used) for p in batch] == expected
        assert list(predict_rows(rb, rows)) == per_row
        argv = ["predict", "--rulebase", str(rb_path), "--input", str(csv_path)]
        assert main(argv + ["--out", str(out_path)]) == 0
        cli = json.loads(out_path.read_text(encoding="utf-8"))["predictions"]
        assert [(p["label"], p["gamma"], p["fallback_used"]) for p in cli] == expected

    def test_block_size_does_not_change_the_bits(self, corridor, corridor_rulebase, monkeypatch):
        got = []
        for block_elements in (1, 3 * 5 * 7, 10**7):
            monkeypatch.setattr(inference, "_BLOCK_ELEMENTS", block_elements)
            got.append(list(predict_rows(corridor_rulebase, corridor.features)))
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("block_elements", [1, 10**4, 10**7])
    def test_fallback_rows_take_the_rule_the_per_row_loop_takes(
        self, block_elements, corridor, corridor_rulebase, monkeypatch
    ):
        rb = corridor_rulebase
        rows = corridor.features.copy()
        rows[::3, 1] = 100.0  # +100 non-detection sentinels force fallbacks
        monkeypatch.setattr(inference, "_BLOCK_ELEMENTS", block_elements)
        got = predict_rows(rb, rows)
        means = inference._observations(rb, rows, "rows")[3]
        fallback = np.flatnonzero(got.fallback).tolist()
        assert len(fallback) >= 100
        want = []
        for i in fallback:
            gaps = rb.representatives - means[i]
            want.append(rb.consequents[np.argmin((gaps * gaps).sum(axis=1))])
        assert got.gammas[fallback].tolist() == want

    def test_predict_rows_validates_its_input(self, corridor_rulebase):
        with pytest.raises(InvalidInputError, match="features"):
            predict_rows(corridor_rulebase, [[0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="row 1"):
            predict_rows(corridor_rulebase, [[-50.0] * 5, [-50.0, math.nan, 0.0, 0.0, 0.0]])


@st.composite
def serving_cases(draw):
    """A rule base whose rules undercut or outnumber its selected dimensions
    (the two planes layouts), over raw features of which some were
    constant in training and all or some are selected, with raw rows and
    raw triangle rows; far rows lie 50 or more training spans from every
    rule, so nothing fires."""
    layout = draw(st.sampled_from(["more dims", "more rules"]))
    dims = draw(st.integers(2 if layout == "more dims" else 1, 6))
    n_rules = draw(st.integers(1, dims - 1) if layout == "more dims" else st.integers(dims, dims + 6))
    if draw(st.booleans()):  # every feature, in order
        n_features, selected = dims, list(range(dims))
    else:
        n_features = draw(st.integers(dims, dims + 3))
        selected = draw(st.permutations(range(n_features)))[:dims]
    # the first selected feature varies, so a far row is far in some dimension
    constant = [draw(st.booleans()) and f != selected[0] for f in range(n_features)]
    mins = [draw(st.floats(-100.0, 0.0)) for _ in range(n_features)]
    spans = [0.0 if c else draw(st.floats(0.5, 50.0)) for c in constant]
    unit = st.floats(-0.5, 1.5)
    universe = tuple(sorted(draw(st.sets(st.integers(-20, 20), min_size=1, max_size=8))))
    rb = RuleBase(
        antecedents=[
            [sorted(draw(st.tuples(unit, unit, unit))) for _ in range(dims)] for _ in range(n_rules)
        ],
        consequents=[draw(st.floats(universe[0], universe[-1])) for _ in range(n_rules)],
        supports=[1] * n_rules,
        params=SimilarityParams(h=draw(st.floats(0.1, 50.0)), omega=draw(st.floats(-10.0, 50.0))),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        normalization=Normalization(
            mins=tuple(mins), maxs=tuple(lo + span for lo, span in zip(mins, spans))
        ),
        selected_features=tuple(selected),
        label_universe=universe,
        consequent_strategy=PER_CLASS,
        seed=0,
    )
    far = st.one_of(st.floats(-1e4, -50.0), st.floats(50.0, 1e4))
    triangles = []
    for kind in draw(st.lists(st.sampled_from(["near", "far"]), min_size=1, max_size=8)):
        units = [sorted(draw(st.tuples(*[unit if kind == "near" else far] * 3))) for _ in mins]
        triangles.append([[lo + u * (span or 1.0) for u in t] for lo, span, t in zip(mins, spans, units)])
    triangles = np.array(triangles)
    # crisp rows are the mid vertices
    return rb, triangles[..., 1], triangles


def assert_same_bits(got, want):
    """Two Predictions rows agree in every bit, the firings included."""
    assert np.float64(got.gamma).tobytes() == np.float64(want.gamma).tobytes()
    assert np.float64(got.total_firing).tobytes() == np.float64(want.total_firing).tobytes()
    assert (got.label, got.fallback_used) == (want.label, want.fallback_used)
    assert type(got.label) is int
    assert got.per_rule_firings.tobytes() == want.per_rule_firings.tobytes()
    assert not got.per_rule_firings.flags.writeable


class TestPerRuleBitsInBothLayouts:
    """predict and predict_fuzzy give the bits of the matching batch row
    whether the planes keep the rules or the dimensions innermost."""

    @settings(max_examples=150, deadline=None)
    @given(case=serving_cases())
    def test_a_row_alone_equals_its_batch_row(self, case):
        rb, rows, triangles = case
        batch = predict_rows(rb, rows)
        fuzzy_batch = Predictions(*inference._outcomes(rb, triangles, "observation"))
        for i, row in enumerate(rows):
            assert_same_bits(predict(rb, row), batch[i])
            sets = [TriangularFuzzySet(*t) for t in triangles[i].tolist()]
            assert_same_bits(predict_fuzzy(rb, sets), fuzzy_batch[i])

    def test_a_feature_selected_rule_base_too(self, corridor, corridor_config):
        # trained with CFS on, as building-global is: a strict subset of the
        # features reaches the kernel
        rb = train_rulebase(dataclasses.replace(corridor_config, cfs_top_n=3)).rule_base
        assert rb.serving.selected is not None
        rows = corridor.features[::7].copy()
        rows[::4] = 100.0  # +100 non-detection sentinels force fallbacks
        triangles = np.stack([rows - 1.0, rows, rows + 1.0], axis=-1)
        batch = predict_rows(rb, rows)
        fuzzy_batch = Predictions(*inference._outcomes(rb, triangles, "observation"))
        assert batch.fallback.any() and not batch.fallback.all()
        for i, row in enumerate(triangles):
            assert_same_bits(predict(rb, row[:, 1]), batch[i])
            sets = [TriangularFuzzySet(*t) for t in row.tolist()]
            assert_same_bits(predict_fuzzy(rb, sets), fuzzy_batch[i])

    def test_both_layouts_and_fallback_rows_are_drawn(self):
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(case=serving_cases())
        def record(case):
            rb, rows, _ = case
            rules_last = rb.planes.shape[2] == rb.n_rules
            seen.add(("rules innermost" if rules_last else "dims innermost",
                      rb.serving.selected is None, predict_rows(rb, rows).fallback.any()))

        record()
        assert {layout for layout, _, _ in seen} == {"rules innermost", "dims innermost"}
        assert {in_order for _, in_order, _ in seen} == {True, False}
        assert any(fallback for _, _, fallback in seen)


class TestTypedRefusals:
    """A value the library entry points cannot read is an InvalidInputError
    naming its position and type, not a bare ValueError or AttributeError."""

    @pytest.fixture()
    def rb(self):
        return random_rulebase(np.random.default_rng(3))

    def test_text_in_an_observation(self, rb):
        width = len(rb.feature_names)
        with pytest.raises(InvalidInputError, match=r"^observation\[0\] is not a number \(type str\)$"):
            predict(rb, ["x", "y", "z", "w"][:width])
        with pytest.raises(InvalidInputError, match=r"^observation\[1\] is not a number \(type list\)$"):
            predict(rb, [1.0, [2.0, 3.0]])
        with pytest.raises(InvalidInputError, match=r"^observation\[0\] is beyond the float range$"):
            predict(rb, [10**400] * width)

    def test_text_in_a_row(self, rb):
        rows = [[0.0] * len(rb.feature_names), [0.0] * len(rb.feature_names)]
        rows[1][-1] = "-61,2"
        at = rf"rows\[1\]\[{len(rows[1]) - 1}\]"
        with pytest.raises(InvalidInputError, match=rf"^{at} is not a number \(type str\)$"):
            predict_rows(rb, rows)

    def test_a_set_that_is_not_a_triangle(self, rb):
        sets = [singleton(0.0), singleton(0.0), 5]
        with pytest.raises(
            InvalidInputError, match=r"^observation_sets\[2\] is not a TriangularFuzzySet \(type int\)$"
        ):
            predict_fuzzy(rb, sets)

    def test_a_subclass_or_an_int_vertex_reads_as_a_plain_set(self, rb):
        # plain sets take the one-pass read; a subclass among them sends the
        # call through the set-by-set check, and both read the same vertices
        class Marked(TriangularFuzzySet):
            pass

        width = len(rb.feature_names)
        plain = [TriangularFuzzySet(-61.5 + i, -60.0 + i, -58.25 + i) for i in range(width)]
        want = predict_fuzzy(rb, plain)
        assert_same_bits(predict_fuzzy(rb, [Marked(s.a1, s.a2, s.a3) for s in plain]), want)
        assert_same_bits(predict_fuzzy(rb, [Marked(*plain[0].__dict__.values())] + plain[1:]), want)
        ints = [TriangularFuzzySet(-62 + i, -60 + i, 2**60 + i) for i in range(width)]
        floats = [TriangularFuzzySet(float(s.a1), float(s.a2), float(s.a3)) for s in ints]
        assert_same_bits(predict_fuzzy(rb, ints), predict_fuzzy(rb, floats))
        with pytest.raises(
            InvalidInputError, match=r"^observation_sets\[0\] is not a TriangularFuzzySet \(type tuple\)$"
        ):
            predict_fuzzy(rb, [(-61.5, -60.0, -58.25)] + [Marked(0.0, 0.0, 0.0)] * (width - 1))

    def test_numeric_text_still_reads_as_before(self, rb):
        row = [0.5] * len(rb.feature_names)
        assert predict(rb, [str(v) for v in row]) == predict(rb, row)

    @pytest.mark.parametrize(
        "cell",
        ["1_5", "-7_0", "\uff11\uff15", "\u0663", b"-5_0", b"-6", bytearray(b"-6"),
         memoryview(b"-6"), np.bytes_(b"-6"), buffer_array("b", b"1_5")],
    )
    def test_text_the_csv_reader_refuses(self, rb, cell):
        # float() reads digit separators and non-ASCII digits, and reads any
        # buffer as text (b"-5_0" as -50.0); a CSV number is none of these
        last = len(rb.feature_names) - 1
        row = [0.5] * last + [cell]
        refused = rf"is not a number \(type {type(cell).__name__}\)$"
        with pytest.raises(InvalidInputError, match=rf"^observation\[{last}\] {refused}"):
            predict(rb, row)
        with pytest.raises(InvalidInputError, match=rf"^rows\[1\]\[{last}\] {refused}"):
            predict_rows(rb, [[0.5] * (last + 1), row])

    def test_an_all_bytes_observation_is_refused_at_its_first_cell(self, rb):
        cells = [b"-5_0"] + [b"-6"] * (len(rb.feature_names) - 1)
        for given in (cells, np.array(cells)):
            with pytest.raises(InvalidInputError, match=r"^observation\[0\] is not a number \(type bytes\)$"):
                predict(rb, given)
            with pytest.raises(InvalidInputError, match=r"^rows\[0\]\[0\] is not a number \(type bytes\)$"):
                predict_rows(rb, [given])

    def test_bools_are_refused_as_the_scalar_intake_refuses_them(self, rb):
        width = len(rb.feature_names)
        flags = [True, False] * width
        with pytest.raises(InvalidInputError, match=r"^observation\[0\] is not a number \(type bool\)$"):
            predict(rb, flags[:width])
        with pytest.raises(InvalidInputError, match=r"^rows\[0\]\[0\] is not a number \(type bool\)$"):
            predict_rows(rb, np.ones((2, width), dtype=bool))
        row = np.array([0.5] * (width - 1) + [np.True_], dtype=object)
        kind = type(np.True_).__name__
        with pytest.raises(InvalidInputError, match=rf"^observation\[{width - 1}\] .* \(type {kind}\)$"):
            predict(rb, row)

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_a_bool_among_numbers_is_refused_wherever_it_sits(self, rb, flag):
        # np.asarray reads [0.5, True, -60.0] as [0.5, 1.0, -60.0]
        width = len(rb.feature_names)
        kind = type(flag).__name__
        for at in (0, width - 1):
            row = [0.5] * width
            row[at] = flag
            with pytest.raises(InvalidInputError, match=rf"^observation\[{at}\] .* \(type {kind}\)$"):
                predict(rb, row)
            with pytest.raises(InvalidInputError, match=rf"^rows\[1\]\[{at}\] .* \(type {kind}\)$"):
                predict_rows(rb, [[-60.0] * width, row])

    def test_numbers_equal_to_a_bool_are_still_read(self, rb):
        row = [0, 1.0, -60.0, 1][: len(rb.feature_names)]
        row += [0.0] * (len(rb.feature_names) - len(row))
        assert predict(rb, row) == predict(rb, np.array(row, dtype=float))

    def test_a_float_array_is_read_without_a_cell_check(self, rb, monkeypatch):
        monkeypatch.setattr(inference, "Number", None)  # any cell check would raise
        row = np.zeros(len(rb.feature_names))
        row[0] = 1.0
        assert predict(rb, row) == predict_rows(rb, row[None])[0]

    def test_float_input_reads_no_cell_as_text(self, rb, monkeypatch):
        monkeypatch.setattr(inference, "_plain_number", None)
        row = [0.5] * len(rb.feature_names)
        assert predict(rb, row) == predict_rows(rb, [row, row])[1]
        assert predict(rb, np.array(row)) == predict_rows(rb, np.array([row]))[0]


class TestPredictionsSequence:
    """predict_rows returns Predictions: a read-only sequence over arrays
    whose items are the Predictions predict gives row by row."""

    def test_items_are_the_per_row_predictions(self, corridor, corridor_rulebase):
        rb = corridor_rulebase
        rows = corridor.features[:6].copy()
        rows[2, 0] = 100.0  # a +100 sentinel forces a fallback
        preds = predict_rows(rb, rows)
        per_row = [predict(rb, row) for row in rows]
        assert isinstance(preds, Predictions) and isinstance(preds, Sequence) and len(preds) == 6
        assert list(preds) == [preds[i] for i in range(6)] == per_row
        assert preds[-4] == preds[2] and preds[2].fallback_used
        with pytest.raises(IndexError):
            preds[6]
        for p in preds:
            assert [type(v) for v in (p.gamma, p.label, p.total_firing, p.fallback_used)] == [
                float, int, float, bool
            ]
        assert preds.firings.shape == (6, rb.n_rules)
        assert preds[0].per_rule_firings.tolist() == preds.firings[0].tolist()

    def test_arrays_are_read_only(self, corridor, corridor_rulebase):
        preds = predict_rows(corridor_rulebase, corridor.features[:3])
        for array in (preds.gammas, preds.labels, preds.totals, preds.firings):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            preds.gammas = np.zeros(3)


    def test_a_slice_is_the_predictions_of_those_rows(self, corridor, corridor_rulebase):
        preds = predict_rows(corridor_rulebase, corridor.features[:6])
        for rows in (slice(1, 3), slice(None, None, -2), slice(4, 1), slice(-2, None)):
            part = preds[rows]
            assert isinstance(part, Predictions)
            assert list(part) == list(preds)[rows]
            for mine, whole in zip(
                (part.gammas, part.labels, part.totals, part.firings),
                (preds.gammas, preds.labels, preds.totals, preds.firings),
            ):
                assert not mine.flags.writeable and mine.base is not None
                assert mine.size == 0 or np.shares_memory(mine, whole)
        assert preds[np.int64(2)] == preds[2]

    @pytest.mark.parametrize("index", [True, 1.0, "1", None, (0,)])
    def test_an_index_that_is_no_integer_names_its_type(self, corridor, corridor_rulebase, index):
        preds = predict_rows(corridor_rulebase, corridor.features[:3])
        with pytest.raises(TypeError, match=rf"not {type(index).__name__}$"):
            preds[index]


BUILTIN_SUM = sum


def compensated_sum(iterable, /, start=0):
    """sum() with floats added as CPython 3.12 and later add them, with
    compensation, here exactly rounded by math.fsum; a sum of ints alone
    stays an exact int, and other items go to the builtin sum()."""
    items = list(iterable)
    if all(isinstance(v, int) for v in (start, *items)):
        return BUILTIN_SUM(items, start)
    if all(isinstance(v, numbers.Real) for v in (start, *items)):
        return math.fsum((start, *items))
    return BUILTIN_SUM(items, start)


class TestInterpreterIndependence:
    """No output depends on how the interpreter's sum() adds floats, which
    CPython 3.12 changed to compensated summation."""

    @staticmethod
    def outputs(rb, rows, dataset, config):
        preds = predict_rows(rb, rows)
        evaluation = predict_batch(rb, dataset)
        run_experiment(config)
        return (
            [(p.gamma, p.total_firing) for p in preds],
            [(p.gamma, p.total_firing) for p in evaluation.predictions],
            evaluation.mean_abs_error,
            (Path(config.output_dir) / "report.json").read_bytes(),
        )

    def test_a_compensated_sum_changes_no_bit(
        self, corridor, corridor_rulebase, corridor_config, tmp_path, monkeypatch
    ):
        rb = corridor_rulebase
        rows = corridor.features.copy()
        rows[::17, 2] = 100.0  # +100 non-detection sentinels force fallbacks
        labels = np.clip(corridor.labels, rb.label_universe[0], rb.label_universe[-1])
        dataset = Dataset(features=rows, labels=labels, feature_names=rb.feature_names)
        config = dataclasses.replace(corridor_config, output_dir=str(tmp_path / "run"))
        plain = self.outputs(rb, rows, dataset, config)
        assert compensated_sum([0.1] * 10) != BUILTIN_SUM([0.1] * 10)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert self.outputs(rb, rows, dataset, config) == plain


@np.errstate(over="ignore")
def row_major_firings(rb, obs):
    """The (rows, R, D) firing expression the rule-major kernel replaced,
    over every row at once: the bits _firing_matrix must keep."""
    ants, reps = rb.antecedents, rb.representatives
    block = obs[:, None]
    shape = np.abs(block[..., 0] - ants[..., 0])
    shape += np.abs(block[..., 1] - ants[..., 1])
    shape += np.abs(block[..., 2] - ants[..., 2])
    shape /= 3.0
    np.subtract(1.0, shape, out=shape)
    np.maximum(shape, 0.0, out=shape)
    factor = np.abs((obs[..., 0] + obs[..., 1] + obs[..., 2])[:, None] / 3.0 - reps)
    factor *= rb.params.h
    factor -= rb.params.omega
    np.exp(factor, out=factor)
    factor += 1.0
    np.divide(1.0, factor, out=factor)
    shape *= factor
    return shape.min(axis=2)


@st.composite
def kernel_cases(draw):
    """A rule base whose rules outnumber, undercut or match its dimensions,
    and normalized rows that are crisp, triangular, far from every rule or
    placed where exp overflows."""
    dims = draw(st.integers(1, 6))
    n_rules = {
        "more rules": draw(st.integers(dims + 1, dims + 8)),
        "more dims": draw(st.integers(1, max(1, dims - 1))),
        "square": dims,
    }[draw(st.sampled_from(["more rules", "more dims", "square"]))]
    unit = st.floats(-0.5, 1.5)
    antecedents = [
        [sorted(draw(st.tuples(unit, unit, unit))) for _ in range(dims)] for _ in range(n_rules)
    ]
    h = draw(st.one_of(st.floats(0.1, 50.0), st.floats(800.0, 5000.0)))
    omega = draw(st.floats(-10.0, 50.0))
    rb = RuleBase(
        antecedents=antecedents,
        consequents=[1.0] * n_rules,
        supports=[1] * n_rules,
        params=SimilarityParams(h=h, omega=omega),
        feature_names=tuple(f"f{i}" for i in range(dims)),
        normalization=Normalization(mins=(0.0,) * dims, maxs=(1.0,) * dims),
        selected_features=tuple(range(dims)),
        label_universe=(1,),
        consequent_strategy=PER_CLASS,
        seed=0,
    )
    far = st.one_of(st.floats(-1e4, -50.0), st.floats(50.0, 1e4))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["crisp", "triangle", "far", "overflow"]), max_size=12)):
        values = far if kind == "far" else unit
        row = [sorted(draw(st.tuples(values, values, values))) for _ in range(dims)]
        if kind in ("crisp", "far"):
            row = [[v[1]] * 3 for v in row]
        if kind == "overflow":
            # h*d - omega beyond exp's range for one rule in dimension 0
            d = (draw(st.floats(711.0, 744.0)) + omega) / h
            row[0] = [rb.representatives[draw(st.integers(0, n_rules - 1)), 0] + d] * 3
        rows.append(row)
    return rb, np.array(rows, dtype=float).reshape(len(rows), dims, 3)


def stacked(obs):
    """(N, D, 3) normalized triangles as the kernel takes them: (4, N, D),
    the three vertices and the vertex mean."""
    return np.concatenate([obs, vertex_means(obs)[..., None]], axis=2).transpose(2, 0, 1)


class TestRuleMajorKernelBits:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_firings_equal_the_row_major_expression_bit_for_bit(self, case):
        rb, obs = case
        want = row_major_firings(rb, obs).view(np.int64)
        for block_elements in (1, 105, 10**7):
            with mock.patch.object(inference, "_BLOCK_ELEMENTS", block_elements):
                with np.errstate(over="ignore"):  # as _outcomes holds it around the kernel
                    got = inference._firing_matrix(rb, stacked(obs))
            assert got.shape == (len(obs), rb.n_rules)
            assert np.array_equal(got.view(np.int64), want), block_elements

    def test_an_empty_batch_gives_no_rows(self, corridor_rulebase):
        rb = corridor_rulebase
        got = inference._firing_matrix(rb, np.empty((4, 0, len(rb.selected_features))))
        assert got.shape == (0, rb.n_rules)
