import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import rulebase
from fuzzyloc.clustering import elbow_fit
from fuzzyloc.data import Normalization, fit_normalization
from fuzzyloc.errors import (
    ConfigError,
    InvalidInputError,
    RuleBaseFormatError,
    RuleBaseVersionError,
)
from fuzzyloc.fuzzy import SimilarityParams, TriangularFuzzySet, representative
from fuzzyloc.inference import predict_rows
from fuzzyloc.pipeline import ExperimentConfig, train_rulebase
from fuzzyloc.rulebase import (
    GLOBAL_MEAN,
    PER_CLASS,
    Rule,
    RuleBase,
    deserialize_rulebase,
    extract_rules,
    load_rulebase,
    save_rulebase,
    serialize_rulebase,
)
from fuzzyloc.synth import generate_synthetic, write_csv

from conftest import identity_normalized, random_rulebase


NEEDS_3 = "a triangle needs 3 values (a1, a2, a3), got"

# what a caller or a document may hand over in place of a valid value
ODD_VALUES = st.sampled_from([
    True, False, 1.5, float("nan"), "3", None, np.bool_(True), np.str_("x"), 10**400, -(10**400),
])
DTYPES = st.sampled_from(
    ["int8", "int64", "uint64", "float16", "float32", "float64", "bool", "complex128", "U4", "object"]
)


def _cast(values, dtype):
    """values as an ndarray of dtype, or of objects where numpy cannot cast them."""
    with np.errstate(all="ignore"):  # a cast may wrap or overflow; the value is the point
        try:
            return np.array(values).astype(dtype)
        except ValueError:  # such as "b1" as an integer
            return np.array(values, dtype=object)


def _put(values, entry, i):
    values = list(values)
    values[i % len(values)] = entry
    return values


@st.composite
def rulebase_keywords(draw):
    """RuleBase keywords: valid values, one or two of them replaced by odd ones
    (a bool, float, string, None, numpy scalar or 400-digit integer, in a
    list or in place of one, a ragged triple, or an ndarray of any dtype)."""
    n_rules, arity = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    names = draw(st.lists(st.sampled_from(["b1", "b2", "b3"]), min_size=arity, max_size=3))
    reals = st.floats(-2.0, 2.0, allow_nan=False)
    triple = st.lists(reals, min_size=3, max_size=3).map(sorted)
    consequent = st.one_of(st.integers(1, 3), st.floats(1.0, 3.0))

    def rows(entry, size=n_rules):
        return st.lists(entry, min_size=size, max_size=size)

    def odd(value):
        return st.one_of(ODD_VALUES, value.map(lambda v: np.array(v)[()]))

    good = dict(
        antecedents=rows(rows(triple, arity)),
        consequents=rows(consequent),
        supports=rows(st.integers(1, 2**63 - 1)),
        feature_names=st.just(names),
        selected_features=st.permutations(range(len(names))).map(lambda p: p[:arity]),
        label_universe=st.sampled_from([(1, 2, 3), (-1, 1, 2, 3, 40)]),
        consequent_strategy=st.sampled_from([PER_CLASS, GLOBAL_MEAN]),
        seed=st.integers(-(2**62), 2**62),
    )
    # an odd entry of each list
    entries = dict(
        antecedents=rows(st.one_of(triple, st.lists(st.one_of(reals, odd(reals)), max_size=4)), arity),
        consequents=odd(consequent),
        supports=st.one_of(st.integers(-1, 2**63 + 1), odd(st.integers(1, 100))),
        feature_names=odd(st.just("b1")),
        selected_features=odd(st.integers(0, 2)),
        label_universe=odd(st.integers(1, 3)),
    )
    keywords = {key: draw(values) for key, values in good.items()}
    for key in draw(st.sets(st.sampled_from(sorted(good)), min_size=1, max_size=2)):
        if key in entries:
            keywords[key] = draw(st.one_of(
                st.builds(_put, st.just(keywords[key]), entries[key], st.integers(0, 4)),
                st.builds(_cast, st.just(keywords[key]), DTYPES),
            ))
        else:
            keywords[key] = draw(odd(st.just(keywords[key])))
    names = keywords["feature_names"]
    zeros, ones = (0.0,) * len(names), (1.0,) * len(names)
    return dict(keywords, params=SimilarityParams(), normalization=Normalization(zeros, ones))


def two_class_data():
    # class 1 hugs the origin, class 2 sits near (1, 1); both tight
    features = [
        [0.00, 0.10],
        [0.10, 0.00],
        [0.05, 0.05],
        [0.90, 1.00],
        [1.00, 0.90],
        [0.95, 0.95],
    ]
    return identity_normalized(features, [1, 1, 1, 2, 2, 2])


class TestExtractRules:
    def test_antecedents_span_cluster_min_mean_max(self):
        rb = extract_rules(two_class_data(), k_max=1)
        assert rb.n_rules == 2
        first = rb.rules[0]
        assert first.consequent == 1.0
        assert first.support_count == 3
        a0, a1 = first.antecedents
        assert (a0.a1, a0.a3) == (0.0, 0.1)
        assert a0.a2 == pytest.approx(0.05)
        assert (a1.a1, a1.a3) == (0.0, 0.1)

    def test_rules_ordered_by_class_label(self):
        rb = extract_rules(two_class_data(), k_max=1)
        assert [r.consequent for r in rb.rules] == [1.0, 2.0]

    def test_multimodal_class_gets_multiple_rules(self):
        rng = np.random.default_rng(0)
        left = rng.uniform(0.0, 0.05, size=(20, 1))
        right = rng.uniform(0.95, 1.0, size=(20, 1))
        features = np.vstack([left, right])
        data = identity_normalized(features, [7] * 40)
        rb = extract_rules(data, k_max=5, seed=1)
        assert rb.n_rules == 2
        assert all(r.consequent == 7.0 for r in rb.rules)
        assert sum(r.support_count for r in rb.rules) == 40
        spans = sorted((r.antecedents[0].a1, r.antecedents[0].a3) for r in rb.rules)
        assert spans[0][1] <= 0.05 and spans[1][0] >= 0.95

    def test_tiny_class_becomes_single_rule(self):
        data = identity_normalized([[0.0], [1.0], [0.2], [0.8]], [1, 1, 3, 3])
        rb = extract_rules(data, k_max=4)
        assert rb.n_rules == 2
        assert [r.support_count for r in rb.rules] == [2, 2]

    @pytest.mark.parametrize("strategy", [PER_CLASS, GLOBAL_MEAN])
    @pytest.mark.parametrize("k_max", [1, 2, 10])
    def test_classes_of_one_and_two_rows_give_one_rule_each(self, strategy, k_max):
        # a sweep of one or two k has its knee at k = 1, so every row of a
        # class lands in its one rule: (min, clipped mean, max) of the rows
        features = np.random.default_rng(3).random((3, 4)) ** 3
        labels = [4, 9, 9] if strategy == PER_CLASS else [4, 4]
        features = features[: len(labels)]
        rb = extract_rules(identity_normalized(features, labels), strategy=strategy, k_max=k_max, seed=5)
        groups = [features[:1], features[1:]] if strategy == PER_CLASS else [features]
        triples = []
        for rows in groups:
            lo, hi = rows.min(axis=0), rows.max(axis=0)
            triples.append(np.stack([lo, np.clip(rows.mean(axis=0), lo, hi), hi], axis=1))
        want = dataclasses.replace(
            rb,
            antecedents=triples,
            consequents=[4.0, 9.0] if strategy == PER_CLASS else [4.0],
            supports=[len(rows) for rows in groups],
        )
        assert serialize_rulebase(rb) == serialize_rulebase(want)

    def test_global_mean_strategy_averages_member_labels(self):
        data = identity_normalized([[0.0], [0.01], [0.99], [1.0]], [1, 3, 8, 8])
        rb = extract_rules(data, strategy=GLOBAL_MEAN, k_max=3, seed=0)
        assert rb.consequent_strategy == GLOBAL_MEAN
        assert sorted(r.consequent for r in rb.rules) == [2.0, 8.0]

    def test_default_label_universe_spans_training_labels(self):
        data = identity_normalized([[0.0], [0.5], [1.0]], [2, 2, 6])
        rb = extract_rules(data, k_max=1)
        assert rb.label_universe == (2, 3, 4, 5, 6)

    @pytest.mark.parametrize(
        "labels, universe, named",
        [
            ([1, 5], (1, 2, 3), "5"),
            ([1, 5], (5, 1), "strictly increasing"),
            ([1, 1025], None, "1..1025"),
            ([1, 5], range(1, 2000), "1..1999"),
            # an entry is never truncated or parsed into an int
            ([1, 2], (1.7, 2.2), "label_universe[0] must be an integer, got float"),
            ([1, 2], (1, "2"), "label_universe[1] must be an integer, got str"),
            ([1, 2], (True, 2), "label_universe[0] must be an integer, got bool"),
        ],
    )
    def test_bad_universes_are_refused(self, labels, universe, named):
        data = identity_normalized([[0.0], [1.0]], labels)
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            extract_rules(data, k_max=1, label_universe=universe)

    @pytest.mark.parametrize(
        "keywords, named",
        [
            (dict(seed=1.5), "seed must be an integer, got float"),
            (dict(seed="7"), "seed must be an integer, got str"),
            (dict(selected_features=(0.9,)), "selected_features[0] must be an integer, got float"),
            (dict(selected_features=(1, True)), "selected_features[1] must be an integer, got bool"),
        ],
    )
    def test_seed_and_selection_are_integers(self, keywords, named):
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            extract_rules(two_class_data(), k_max=1, **keywords)
        rb = extract_rules(two_class_data(), k_max=1, seed=np.int64(7), selected_features=np.array([1]))
        assert (type(rb.seed), type(rb.selected_features[0])) == (int, int)

    @pytest.mark.parametrize(
        "keywords, named",
        [
            (dict(k_max=2.5), "k_max must be an integer, got float"),
            (dict(k_max=True), "k_max must be an integer, got bool"),
            (dict(selected_features=(0, 99)), "selected_features[1] must be <= 1, got 99"),
            (dict(selected_features=(-1,)), "selected_features[0] must be >= 0, got -1"),
            # str() refuses an int of more than 4,300 digits
            pytest.param(
                dict(k_max=-(10**5000)), "k_max must be >= 1, got an integer beyond 64 bits",
                id="k_max-of-5001-digits",
            ),
            pytest.param(
                dict(selected_features=(10**5000,)),
                "selected_features[0] must be <= 1, got an integer beyond 64 bits",
                id="index-of-5001-digits",
            ),
        ],
    )
    def test_k_max_and_indices_are_checked_before_training(self, keywords, named):
        with mock.patch.object(rulebase, "elbow_fits") as fit:
            with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
                extract_rules(two_class_data(), **keywords)
        assert not fit.called

    @pytest.mark.parametrize("strategy, calls", [(PER_CLASS, 9), (GLOBAL_MEAN, 1)])
    def test_one_sweep_clusters_every_class(self, strategy, calls):
        data = fit_normalization(generate_synthetic(9, 12, 4, 0.5, 3))
        with mock.patch.object(rulebase, "elbow_fits", wraps=rulebase.elbow_fits) as sweep:
            extract_rules(data, strategy=strategy, seed=5, k_max=6)
        (call,) = sweep.call_args_list
        assert len(call.args[0]) == calls
        assert call.args[1:] == (6, 5)

    @pytest.mark.parametrize("per_room", [2, 5])
    def test_an_empty_selection_is_refused_before_training(self, per_room):
        data = fit_normalization(generate_synthetic(3, per_room, 4, 0.5, 1))
        with mock.patch.object(rulebase, "elbow_fits") as fit:
            with pytest.raises(InvalidInputError, match="^selected_features must be non-empty$"):
                extract_rules(data, selected_features=())
        assert not fit.called

    def test_selected_features_project_the_antecedents(self):
        data = two_class_data()
        rb = extract_rules(data, selected_features=(1,), k_max=1)
        assert rb.selected_features == (1,)
        assert all(len(r.antecedents) == 1 for r in rb.rules)
        assert rb.feature_names == data.feature_names

    def test_requires_normalized_dataset(self):
        from fuzzyloc.data import Dataset

        raw = Dataset(features=[[0.0], [4.0]], labels=[1, 2], feature_names=("a",))
        with pytest.raises(InvalidInputError):
            extract_rules(raw, k_max=1)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 200), min_size=1, max_size=3),
        dims=st.integers(1, 5),
        strategy=st.sampled_from([PER_CLASS, GLOBAL_MEAN]),
        k_max=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_arrays_keep_the_bits_of_per_column_reductions(
        self, sizes, dims, strategy, k_max, seed
    ):
        # classes of 1 to 200 rows put clusters on both sides of numpy's
        # 8-element threshold for pairwise summation
        rng = np.random.default_rng(seed)
        features = rng.random((sum(sizes), dims)) ** 3
        labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        data = identity_normalized(features, labels)
        rb = extract_rules(data, strategy=strategy, seed=seed, k_max=k_max)
        groups = [slice(None)]
        if strategy == PER_CLASS:
            groups = [labels == c for c in np.unique(labels)]
        want, consequents, supports = [], [], []
        for group in groups:
            points = features[group]
            k, fit = elbow_fit(points, min(k_max, len(points)), seed)
            for mask in (fit.assignment == c for c in range(k)):
                if not mask.any():
                    continue
                members = points[mask]
                want.append([
                    (col.min(), np.clip(col.mean(), col.min(), col.max()), col.max())
                    for col in members.T
                ])
                consequents.append(labels[group][mask].astype(float).mean())
                supports.append(len(members))
        assert rb.antecedents.tobytes() == np.array(want).tobytes()
        assert rb.consequents.tobytes() == np.array(consequents).tobytes()
        assert rb.supports.tolist() == supports

    @settings(max_examples=40, deadline=None)
    @given(
        pool=st.lists(
            st.sampled_from([0.0, 1 / 9, 1 / 7, 1 / 6, 0.1, 1 / 3, 0.7, 1.0]), min_size=1, max_size=3
        ),
        n=st.integers(1, 80),
        dims=st.integers(1, 4),
        strategy=st.sampled_from([PER_CLASS, GLOBAL_MEAN]),
        k_max=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_repeated_values_give_ordered_triples(self, pool, n, dims, strategy, k_max, seed):
        # a mean of n equal values can round an ulp past them, as the
        # mean of 30 copies of 1/9 does; integer readings repeat like this
        rng = np.random.default_rng(seed)
        features = rng.choice(pool, size=(n, dims))
        constant = rng.random(dims) < 0.5
        features[:, constant] = features[0, constant]
        labels = rng.integers(1, 3, size=n)
        rb = extract_rules(identity_normalized(features, labels), strategy=strategy, seed=seed, k_max=k_max)
        a1, a2, a3 = np.moveaxis(rb.antecedents, -1, 0)
        assert ((a1 <= a2) & (a2 <= a3)).all()
        assert (a2[a1 == a3] == a1[a1 == a3]).all()

    def test_deterministic_per_seed(self, corridor_config):
        from fuzzyloc.pipeline import train_rulebase

        assert train_rulebase(corridor_config).rule_base == train_rulebase(
            corridor_config
        ).rule_base


def small_rulebase():
    return RuleBase(
        rules=(
            Rule(
                antecedents=(TriangularFuzzySet(0.0, 0.25, 0.5),),
                consequent=1.0,
                support_count=3,
            ),
            Rule(
                antecedents=(TriangularFuzzySet(0.5, 0.75, 1.0),),
                consequent=2.0,
                support_count=4,
            ),
        ),
        params=SimilarityParams(),
        feature_names=("b1",),
        normalization=Normalization(mins=(-80.0,), maxs=(-20.0,)),
        selected_features=(0,),
        label_universe=(1, 2, 3),
        consequent_strategy=PER_CLASS,
        seed=42,
    )


class TestRuleBaseValidation:
    def test_antecedent_arity_must_match_selection(self):
        rb = small_rulebase()
        with pytest.raises(InvalidInputError, match=re.escape("rules[0]: 1 antecedents, expected 2")):
            RuleBase(
                rules=rb.rules,
                params=rb.params,
                feature_names=("b1", "b2"),
                normalization=Normalization(mins=(0.0, 0.0), maxs=(1.0, 1.0)),
                selected_features=(0, 1),
                label_universe=rb.label_universe,
                consequent_strategy=PER_CLASS,
                seed=0,
            )

    @pytest.mark.parametrize(
        "antecedents, consequents, named",
        [
            ([[(0.1, 0.2), (0.3, 0.4, 0.5, 0.6)]], [1.0], f"rules[0].antecedents[0]: {NEEDS_3} 2"),
            ([[(0.1, 0.2, 0.3), (0.4,) * 4]], [1.0], f"rules[0].antecedents[1]: {NEEDS_3} 4"),
            ([[(0.1, 0.2, 0.3), ()]], [1.0], f"rules[0].antecedents[1]: {NEEDS_3} 0"),
            (
                [[(0.0, 0.0, 0.0)] * 2, [(0.0, 0.0, 0.0), [0.1, 0.2]]], [1.0, 2.0],
                f"rules[1].antecedents[1]: {NEEDS_3} 2",
            ),
            # the first faulty rule, and its first faulty triple, is named
            (
                [[(0.3, 0.2, 0.1), (0.1, 0.2)]], [1.0],
                "rules[0].antecedents[0]: fuzzy set vertices must satisfy a1 <= a2 <= a3",
            ),
            (
                [[(0.0, 0.0, 0.0)] * 2, [(0.1,), (0.2,)]], [float("nan"), 2.0],
                "rules[0]: non-finite consequent",
            ),
            # an array is read as the lists it holds, so it meets the same checks
            (np.zeros((1, 2, 2)), [1.0], f"rules[0].antecedents[0]: {NEEDS_3} 2"),
            (np.zeros((1, 3, 2)), [1.0], f"rules[0].antecedents[0]: {NEEDS_3} 2"),
            (
                np.array([[("0.1", "0.2", "0.3")] * 2]), [1.0],
                "rules[0].antecedents[0]: fuzzy set vertex must be a real number, got str",
            ),
            (
                np.zeros((1, 2, 3)), np.array([True]),
                "rules[0]: consequent must be a real number, got bool",
            ),
            # a lone value where a sequence belongs
            (
                np.zeros((1, 2)), [1.0],
                "antecedents, consequents and supports disagree in shape: "
                "object of type 'float' has no len()",
            ),
            (
                np.zeros((1, 2, 3)), 1.0,
                "antecedents, consequents and supports disagree in shape: "
                "'float' object is not iterable",
            ),
        ],
    )
    def test_every_triple_holds_three_values(self, antecedents, consequents, named):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}"):
            RuleBase(
                antecedents=antecedents,
                consequents=consequents,
                supports=[1] * len(antecedents),
                params=SimilarityParams(),
                feature_names=("b1", "b2"),
                normalization=Normalization(mins=(0.0, 0.0), maxs=(1.0, 1.0)),
                selected_features=(0, 1),
                label_universe=(1, 2),
                consequent_strategy=PER_CLASS,
                seed=0,
            )

    def test_label_universe_must_increase(self):
        rb = small_rulebase()
        for bad in [(), (2, 1), (1, 1)]:
            with pytest.raises(InvalidInputError):
                RuleBase(
                    rules=rb.rules,
                    params=rb.params,
                    feature_names=rb.feature_names,
                    normalization=rb.normalization,
                    selected_features=rb.selected_features,
                    label_universe=bad,
                    consequent_strategy=PER_CLASS,
                    seed=0,
                )

    def test_consequents_must_lie_in_the_label_universe(self):
        rb = small_rulebase()
        for consequent in [0.5, 3.5, 1.7e308]:
            rule = dataclasses.replace(rb.rules[1], consequent=consequent)
            named = f"rules[1]: consequent {consequent!r} lies outside the label universe [1, 3]"
            with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
                dataclasses.replace(rb, rules=(rb.rules[0], rule))
        edge = dataclasses.replace(rb.rules[1], consequent=3.0)
        assert dataclasses.replace(rb, rules=(rb.rules[0], edge)).consequents[1] == 3.0

    @pytest.mark.parametrize("bad, named", [
        ((1, 2, 2**52 + 1), "label_universe[2] must be <= 4503599627370496, got 4503599627370497"),
        ((-(2**52) - 1, 1, 2), "label_universe[0] must be >= -4503599627370496, got -4503599627370497"),
        ((1, 2, 2**63), "label_universe[2] must be <= 4503599627370496, got 9223372036854775808"),
        ((1, 2, 10**5000), "label_universe[2] must be <= 4503599627370496, got an integer beyond 64 bits"),
    ])
    def test_label_universe_must_lie_in_the_label_range(self, bad, named):
        rb = small_rulebase()
        assert dataclasses.replace(rb, label_universe=(-(2**52), 1, 2, 2**52)).n_rules == 2
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            dataclasses.replace(rb, label_universe=bad)

    # finite and ordered vertices whose sum overflows
    @pytest.mark.parametrize("triple", [(1e308, 1e308, 1e308), (1e308, 1.5e308, 1.7e308)])
    def test_vertex_means_must_stay_in_the_float_range(self, triple):
        rb = small_rulebase()
        rule = Rule(antecedents=(TriangularFuzzySet(*triple),), consequent=2.0, support_count=1)
        named = "rules[1]: a vertex mean is beyond the float range"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            dataclasses.replace(rb, rules=(rb.rules[0], rule))

    def test_a_consequent_outside_the_universe_is_named_before_a_vertex_mean(self):
        rb = small_rulebase()
        huge = TriangularFuzzySet(1e308, 1.5e308, 1.7e308)
        rule = Rule(antecedents=(huge,), consequent=4.0, support_count=1)
        with pytest.raises(InvalidInputError, match=re.escape("rules[1]: consequent 4.0 lies outside")):
            dataclasses.replace(rb, rules=(rb.rules[0], rule))

    def test_consequent_goes_through_the_finite_real_check(self):
        ants = (TriangularFuzzySet(0.0, 0.5, 1.0),)
        for bad in [float("nan"), float("inf"), 10**400]:
            with pytest.raises(InvalidInputError, match="non-finite consequent"):
                Rule(antecedents=ants, consequent=bad, support_count=1)
        with pytest.raises(InvalidInputError, match="consequent must be a real number, got str"):
            Rule(antecedents=ants, consequent="2", support_count=1)
        rule = Rule(antecedents=ants, consequent=np.int64(2), support_count=1)
        assert type(rule.consequent) is float

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("supports", [1.5, 4], "rules[0]: support_count must be an integer, got float"),
            ("supports", [3, True], "rules[1]: support_count must be an integer, got bool"),
            ("supports", ["3", 4], "rules[0]: support_count must be an integer, got str"),
            ("supports", [None, 4], "rules[0]: support_count must be an integer, got NoneType"),
            ("supports", [-(10**400), 4], "rules[0]: support_count must be >= 1"),
            (
                "supports", np.array([3, 2**64 - 1], dtype=np.uint64),
                "rules[1]: support_count must be <= 9223372036854775807, got 18446744073709551615",
            ),
            ("supports", np.array([3.0, 4.0]), "rules[0]: support_count must be an integer, got float"),
            ("consequents", np.array([True, True]), "rules[0]: consequent must be a real number, got bool"),
            ("seed", 1.5, "seed must be an integer, got float"),
            ("seed", "7", "seed must be an integer, got str"),
            ("seed", True, "seed must be an integer, got bool"),
            ("seed", None, "seed must be an integer, got NoneType"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", 2**63, "seed must be <= 9223372036854775807, got 9223372036854775808"),
            pytest.param(
                "seed", 10**5000, "seed must be <= 9223372036854775807, got an integer beyond 64 bits",
                id="seed-of-5001-digits",
            ),
            ("feature_names", (5,), "feature_names[0] must be a str, got 5"),
            ("selected_features", (0.9,), "selected_features[0] must be an integer, got float"),
            ("label_universe", (1.7, 2.2, 3), "label_universe[0] must be an integer, got float"),
            ("label_universe", ("1", "2", "3"), "label_universe[0] must be an integer, got str"),
            ("label_universe", (True, 2, 3), "label_universe[0] must be an integer, got bool"),
        ],
    )
    def test_every_value_meets_one_check_whatever_the_source(self, field, value, named):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}"):
            dataclasses.replace(small_rulebase(), **{field: value})

    def test_feature_names_are_distinct(self):
        # a repeated name would read one CSV column twice at predict time
        with pytest.raises(InvalidInputError, match="^feature_names contains duplicates$"):
            dataclasses.replace(
                small_rulebase(), feature_names=("b1", "b1"),
                normalization=Normalization(mins=(-80.0, -80.0), maxs=(-20.0, -20.0)),
            )

    def test_a_rule_base_holds_a_rule(self):
        for empty in [dict(rules=()), dict(antecedents=np.zeros((0, 1, 3)), consequents=[], supports=[])]:
            with pytest.raises(InvalidInputError, match="^rule base must contain at least one rule$"):
                dataclasses.replace(small_rulebase(), **empty)

    def test_numpy_integers_become_ints(self):
        rb = dataclasses.replace(
            small_rulebase(), seed=np.int64(7), selected_features=np.array([0]),
            label_universe=np.arange(1, 4, dtype=np.uint8), supports=np.array([3, 4], dtype=np.int16),
        )
        assert rb == dataclasses.replace(small_rulebase(), seed=7)
        assert {type(v) for v in (rb.seed, *rb.selected_features, *rb.label_universe)} == {int}

    def test_support_count_goes_through_the_integer_check(self):
        ants = (TriangularFuzzySet(0.0, 0.5, 1.0),)
        for bad, named in [(2.5, "float"), (True, "bool"), ("3", "str"), (None, "NoneType")]:
            with pytest.raises(InvalidInputError, match=f"support_count must be an integer, got {named}"):
                Rule(antecedents=ants, consequent=1.0, support_count=bad)
        with pytest.raises(
            InvalidInputError, match="^support_count must be <= 9223372036854775807, got 9223372036854775808$"
        ):
            Rule(antecedents=ants, consequent=1.0, support_count=2**63)
        # str() refuses an int of more than 4,300 digits
        beyond = "an integer beyond 64 bits"
        for bad, named in [(10**5000, f"<= 9223372036854775807, got {beyond}"), (-(10**5000), f">= 1, got {beyond}")]:
            with pytest.raises(InvalidInputError, match=re.escape(f"support_count must be {named}")):
                Rule(antecedents=ants, consequent=1.0, support_count=bad)
        with pytest.raises(InvalidInputError, match=f"^non-finite consequent: {beyond}$"):
            Rule(antecedents=ants, consequent=10**5000, support_count=1)
        assert type(Rule(antecedents=ants, consequent=1.0, support_count=np.int64(3)).support_count) is int

    def test_selected_indices_must_be_in_range_and_unique(self):
        rb = small_rulebase()
        for bad in [(1,), (-1,), (0, 0), (10**5000,)]:
            with pytest.raises(InvalidInputError):
                RuleBase(
                    rules=rb.rules,
                    params=rb.params,
                    feature_names=rb.feature_names,
                    normalization=rb.normalization,
                    selected_features=bad,
                    label_universe=rb.label_universe,
                    consequent_strategy=PER_CLASS,
                    seed=0,
                )


class TestRuleArrays:
    def test_arrays_mirror_the_rules(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rb = random_rulebase(rng)
            n_rules, arity = rb.n_rules, len(rb.selected_features)
            assert rb.antecedents.shape == (n_rules, arity, 3)
            assert rb.representatives.shape == (n_rules, arity)
            assert rb.consequents.shape == (n_rules,)
            for r, rule in enumerate(rb.rules):
                assert rb.consequents[r] == rule.consequent
                for d, a in enumerate(rule.antecedents):
                    assert tuple(rb.antecedents[r, d]) == (a.a1, a.a2, a.a3)
                    # bit-identical to the scalar reference
                    assert rb.representatives[r, d] == representative(a)

    def test_arrays_are_read_only_and_compared_exactly(self):
        rb = small_rulebase()
        for array in (rb.antecedents, rb.consequents, rb.supports, rb.representatives):
            with pytest.raises(ValueError):
                array[0] = 9
        assert rb == small_rulebase()
        fields = [f.name for f in dataclasses.fields(rb)]
        assert fields[:3] == ["antecedents", "consequents", "supports"]
        assert "representatives" not in fields and "rules" not in fields
        nudged = rb.antecedents.copy()
        nudged[1, 0, 2] = np.nextafter(1.0, 0.0)
        assert dataclasses.replace(rb, antecedents=nudged) != rb
        assert dataclasses.replace(rb, supports=[3, 5]) != rb
        assert dataclasses.replace(rb, label_universe=(1, 2, 3, 4)) != rb

    def test_rules_view_is_built_on_first_use_and_cached(self, tmp_path, corridor_rulebase):
        path = tmp_path / "rb.json"
        save_rulebase(corridor_rulebase, path)
        loaded = load_rulebase(path)
        # neither training nor loading builds the Rule objects
        assert "rules" not in vars(corridor_rulebase) and "rules" not in vars(loaded)
        assert loaded.rules is loaded.rules
        assert all(type(rule) is Rule for rule in loaded.rules)
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.rules = ()
        assert RuleBase(**{
            f.name: getattr(loaded, f.name) for f in dataclasses.fields(loaded)
            if f.name not in ("antecedents", "consequents", "supports")
        }, rules=loaded.rules) == loaded

    def test_rules_replace_the_arrays(self):
        rb = small_rulebase()
        swapped = dataclasses.replace(rb, rules=rb.rules[::-1])
        assert swapped.consequents.tolist() == [2.0, 1.0]
        assert swapped.supports.tolist() == [4, 3]
        assert swapped.antecedents[0, 0].tolist() == [0.5, 0.75, 1.0]


class TestPlanes:
    """The firing kernel's planes are derived from the arrays: built once,
    read-only, and no part of a rule base's identity."""

    def test_planes_hold_the_vertices_and_vertex_means_longer_axis_last(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rb = random_rulebase(rng)
            n_rules, dims = rb.n_rules, len(rb.selected_features)
            want = np.concatenate([rb.antecedents, rb.representatives[..., None]], axis=2)
            if dims > n_rules:
                assert rb.planes.shape == (4, n_rules, dims)
                assert np.array_equal(rb.planes, want.transpose(2, 0, 1))
            else:
                assert rb.planes.shape == (4, dims, n_rules)
                assert np.array_equal(rb.planes, want.transpose(2, 1, 0))
            assert rb.planes.flags.c_contiguous

    def test_planes_are_read_only_and_built_once(self):
        rb = small_rulebase()
        assert "planes" not in vars(rb)
        planes = rb.planes
        assert rb.planes is planes
        with pytest.raises(ValueError):
            planes[0, 0, 0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rb.planes = planes
        assert "planes" not in [f.name for f in dataclasses.fields(rb)]

    def test_a_round_trip_has_equal_planes(self, corridor_rulebase):
        loaded = deserialize_rulebase(serialize_rulebase(corridor_rulebase))
        assert np.array_equal(loaded.planes, corridor_rulebase.planes)

    def test_equality_and_bytes_do_not_depend_on_built_planes(self):
        for seed in range(10):
            built = random_rulebase(np.random.default_rng(seed))
            fresh = random_rulebase(np.random.default_rng(seed))
            built.planes
            assert "planes" in vars(built) and "planes" not in vars(fresh)
            assert built == fresh and fresh == built
            assert serialize_rulebase(built) == serialize_rulebase(fresh)
            assert "planes" not in vars(fresh)

    def test_rules_built_rule_bases_get_planes(self):
        # small_rulebase is built from rules=, as perfbench/micro.py builds its own
        rb = small_rulebase()
        from_arrays = RuleBase(**{
            f.name: getattr(rb, f.name) for f in dataclasses.fields(rb)
        })
        assert np.array_equal(rb.planes, from_arrays.planes)
        assert rb.planes.tolist() == [[[0.0, 0.5]], [[0.25, 0.75]], [[0.5, 1.0]], [[0.25, 0.75]]]


class TestSerialization:
    def test_document_shape(self):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        assert doc["format_version"] == 1
        assert doc["similarity_params"] == {"h": 5.0, "omega": 5.0}
        assert doc["normalization"] == [{"name": "b1", "min": -80.0, "max": -20.0}]
        assert doc["selected_features"] == [0]
        assert doc["label_universe"] == [1, 2, 3]
        assert doc["rules"][0] == {
            "antecedents": [[0.0, 0.25, 0.5]],
            "consequent": 1.0,
            "support_count": 3,
        }

    def test_round_trip_identity(self):
        rb = small_rulebase()
        assert deserialize_rulebase(serialize_rulebase(rb)) == rb

    def test_a_listed_universe_is_not_bounded(self, tmp_path):
        # only a range is bounded; a document lists its universe
        rb = dataclasses.replace(small_rulebase(), label_universe=tuple(range(1, 2001)))
        path = tmp_path / "rb.json"
        save_rulebase(rb, path)
        loaded = load_rulebase(path)
        assert loaded.label_universe == tuple(range(1, 2001))
        assert [p.label for p in predict_rows(loaded, [[-65.0], [-35.0]])] == [1, 2]

    def test_round_trip_many_random_rulebases(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            rb = random_rulebase(rng)
            again = deserialize_rulebase(serialize_rulebase(rb))
            assert again == rb
            # floats must survive exactly, including awkward ones
            assert serialize_rulebase(again) == serialize_rulebase(rb)

    @settings(max_examples=300, deadline=None)
    @given(keywords=rulebase_keywords())
    def test_every_accepted_rule_base_loads_back_equal(self, keywords):
        # one definition of a valid rule base: what the constructor accepts,
        # from lists or arrays of any dtype, the reader accepts back
        try:
            rb = RuleBase(**keywords)
        except InvalidInputError:
            return
        text = serialize_rulebase(rb)
        again = deserialize_rulebase(text)
        assert again == rb
        assert serialize_rulebase(again) == text

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), names=st.lists(st.text(), min_size=4, max_size=4, unique=True))
    def test_the_text_is_the_stdlib_encoding(self, seed, names):
        rb = random_rulebase(np.random.default_rng(seed))
        rb = dataclasses.replace(rb, feature_names=tuple(names[:len(rb.feature_names)]))
        doc = {
            "format_version": 1,
            "similarity_params": {"h": rb.params.h, "omega": rb.params.omega},
            "normalization": [
                {"name": name, "min": lo, "max": hi}
                for name, lo, hi in zip(rb.feature_names, rb.normalization.mins, rb.normalization.maxs)
            ],
            "selected_features": list(rb.selected_features),
            "consequent_strategy": rb.consequent_strategy,
            "label_universe": list(rb.label_universe),
            "seed": rb.seed,
            "rules": [
                {
                    "antecedents": [[a.a1, a.a2, a.a3] for a in rule.antecedents],
                    "consequent": rule.consequent,
                    "support_count": rule.support_count,
                }
                for rule in rb.rules
            ],
        }
        assert serialize_rulebase(rb) == json.dumps(doc, indent=2) + "\n"

    def test_file_round_trip(self, tmp_path, corridor_rulebase):
        path = tmp_path / "rb.json"
        save_rulebase(corridor_rulebase, path)
        assert load_rulebase(path) == corridor_rulebase

    def test_serialized_text_is_stable(self):
        assert serialize_rulebase(small_rulebase()) == serialize_rulebase(small_rulebase())

    def test_integers_are_re_saved_as_floats(self):
        text = serialize_rulebase(small_rulebase())
        doc = json.loads(text)
        doc["similarity_params"] = {"h": 5, "omega": 5}
        doc["normalization"][0].update(min=-80, max=-20)
        doc["rules"][0].update(antecedents=[[0, 0.25, 0.5]], consequent=1)
        doc["rules"][1]["antecedents"] = [[0.5, 0.75, 1]]
        assert serialize_rulebase(deserialize_rulebase(json.dumps(doc))) == text

    def test_trained_building_file_re_saves_byte_for_byte(self, tmp_path):
        csv_path = tmp_path / "building.csv"
        dataset = generate_synthetic(12, 30, 8, 0.5, 5)
        write_csv(dataset, csv_path)
        config = ExperimentConfig(
            input_path=str(csv_path), label_column="room",
            feature_columns=dataset.feature_names, unseen_labels=(4, 9), seed=3,
        )
        path = tmp_path / "rulebase.json"
        save_rulebase(train_rulebase(config).rule_base, path)
        text = path.read_text(encoding="utf-8")
        assert serialize_rulebase(load_rulebase(path)) == text
        # the same document with every integral float written as an integer
        integers = re.sub(r"(?m)^(\s+(?:\"\w+\": )?-?\d+)\.0(,?)$", r"\1\2", text)
        assert integers.count("\n") == text.count("\n") and len(integers) < len(text) - 100
        path.write_text(integers, encoding="utf-8")
        assert serialize_rulebase(load_rulebase(path)) == text

    def test_missing_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match=f"cannot read rule base {path}: No such file"):
            load_rulebase(path)

    def test_bytes_that_are_not_utf8_are_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        text = serialize_rulebase(small_rulebase()).encode("utf-8")
        path.write_bytes(text.replace(b"b1", b"b\xe91"))
        with pytest.raises(RuleBaseFormatError, match=f"rule base {path} is not UTF-8 text"):
            load_rulebase(path)


class TestDeserializationErrors:
    def test_invalid_json_reports_position(self):
        with pytest.raises(RuleBaseFormatError, match="line 1"):
            deserialize_rulebase("{not json")

    def test_an_integer_too_long_to_convert_is_a_format_error(self):
        text = serialize_rulebase(small_rulebase()).replace('"seed": 42', '"seed": ' + "9" * 5000)
        with pytest.raises(RuleBaseFormatError, match="holds a number it cannot read: Exceeds the limit"):
            deserialize_rulebase(text)

    def test_non_object_document(self):
        with pytest.raises(RuleBaseFormatError, match="object"):
            deserialize_rulebase("[1, 2]")

    def test_unsupported_version(self):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        doc["format_version"] = 2
        with pytest.raises(RuleBaseVersionError, match="2"):
            deserialize_rulebase(json.dumps(doc))

    def test_missing_field_is_named(self):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        del doc["rules"]
        with pytest.raises(RuleBaseFormatError, match="rules"):
            deserialize_rulebase(json.dumps(doc))

    def test_malformed_antecedent_triple(self):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        doc["rules"][0]["antecedents"][0] = [0.0, 1.0]
        with pytest.raises(RuleBaseFormatError, match="antecedents"):
            deserialize_rulebase(json.dumps(doc))

    def test_unordered_antecedent_is_rejected(self):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        doc["rules"][0]["antecedents"][0] = [0.9, 0.5, 0.1]
        with pytest.raises(RuleBaseFormatError, match="invariant"):
            deserialize_rulebase(json.dumps(doc))

    def test_wrong_field_type(self):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        doc["similarity_params"]["h"] = "five"
        with pytest.raises(RuleBaseFormatError, match="h"):
            deserialize_rulebase(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, edit",
        [
            (
                r"similarity_params: non-finite sensitivity factor h",
                lambda doc: doc["similarity_params"].update(h=float("nan")),
            ),
            (
                r"non-finite normalization\[0\]\.max",
                lambda doc: doc["normalization"][0].update(max=10**400),
            ),
            (
                r"rules\[1\]\.antecedents\[0\]: non-finite",
                lambda doc: doc["rules"][1]["antecedents"][0].__setitem__(1, float("inf")),
            ),
            (
                r"rules\[0\]\.antecedents\[0\]: fuzzy set vertex must be a real number, got str",
                lambda doc: doc["rules"][0]["antecedents"][0].__setitem__(0, "0"),
            ),
            (
                r"rules\[1\]: non-finite consequent",
                lambda doc: doc["rules"][1].update(consequent=float("nan")),
            ),
            # the constructor checks these values; the reader checks only the shape
            (r"seed must be an integer, got float", lambda doc: doc.update(seed=1.5)),
            (r"seed must be an integer, got str", lambda doc: doc.update(seed="7")),
            (r"seed must be an integer, got NoneType", lambda doc: doc.update(seed=None)),
            (r"seed must be >= 0, got -1", lambda doc: doc.update(seed=-1)),
            (
                r"feature_names contains duplicates",
                lambda doc: doc["normalization"].append(dict(doc["normalization"][0])),
            ),
            (r"feature_names\[0\] must be a str, got 5", lambda doc: doc["normalization"][0].update(name=5)),
            (r"unknown consequent strategy 5", lambda doc: doc.update(consequent_strategy=5)),
            (
                r"selected_features\[0\] must be an integer, got float",
                lambda doc: doc.update(selected_features=[0.0]),
            ),
            (
                r"label_universe\[1\] must be an integer, got str",
                lambda doc: doc.update(label_universe=[1, "2", 3]),
            ),
        ],
    )
    def test_errors_name_the_field_path(self, path, edit):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        edit(doc)
        with pytest.raises(RuleBaseFormatError, match=f"invariant: .*{path}"):
            deserialize_rulebase(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("format_version", lambda doc: doc.update(format_version=True)),
            ("support_count", lambda doc: doc["rules"][0].update(support_count=True)),
            ("consequent", lambda doc: doc["rules"][0].update(consequent=False)),
            ("seed", lambda doc: doc.update(seed=False)),
            ("omega", lambda doc: doc["similarity_params"].update(omega=True)),
            ("min", lambda doc: doc["normalization"][0].update(min=False)),
            ("antecedents", lambda doc: doc["rules"][0]["antecedents"][0].__setitem__(2, True)),
            ("selected_features", lambda doc: doc.update(selected_features=[False])),
            ("label_universe", lambda doc: doc.update(label_universe=[True, 2, 3])),
        ],
    )
    def test_json_booleans_are_not_numbers(self, field, edit):
        doc = json.loads(serialize_rulebase(small_rulebase()))
        edit(doc)
        with pytest.raises(RuleBaseFormatError, match=f"{field}.*bool"):
            deserialize_rulebase(json.dumps(doc))
