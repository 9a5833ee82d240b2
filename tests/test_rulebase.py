import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import rulebase
from fuzzyloc.data import Normalization
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
        ],
    )
    def test_bad_universes_are_refused(self, labels, universe, named):
        data = identity_normalized([[0.0], [1.0]], labels)
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            extract_rules(data, k_max=1, label_universe=universe)

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
            for mask in rulebase._cluster_rules(points, seed, k_max):
                members = points[mask]
                want.append([(col.min(), col.mean(), col.max()) for col in members.T])
                consequents.append(labels[group][mask].astype(float).mean())
                supports.append(len(members))
        assert rb.antecedents.tobytes() == np.array(want).tobytes()
        assert rb.consequents.tobytes() == np.array(consequents).tobytes()
        assert rb.supports.tolist() == supports

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
        with pytest.raises(InvalidInputError):
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
            with pytest.raises(InvalidInputError, match="rule 1 has a consequent outside the label universe"):
                dataclasses.replace(rb, rules=(rb.rules[0], rule))
        edge = dataclasses.replace(rb.rules[1], consequent=3.0)
        assert dataclasses.replace(rb, rules=(rb.rules[0], edge)).consequents[1] == 3.0

    def test_label_universe_must_be_64_bit(self):
        rb = small_rulebase()
        assert dataclasses.replace(rb, label_universe=(1, 2, 2**63 - 1)).n_rules == 2
        for bad in [(1, 2, 2**63), (-(2**63) - 1, 1, 2)]:
            with pytest.raises(InvalidInputError, match="64-bit"):
                dataclasses.replace(rb, label_universe=bad)

    def test_vertex_means_must_stay_in_the_float_range(self):
        rb = small_rulebase()
        huge = TriangularFuzzySet(1e308, 1e308, 1e308)
        rule = Rule(antecedents=(huge,), consequent=2.0, support_count=1)
        with pytest.raises(InvalidInputError, match="rule 1 .* vertex mean beyond the float range"):
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

    def test_selected_indices_must_be_in_range_and_unique(self):
        rb = small_rulebase()
        for bad in [(1,), (-1,), (0, 0)]:
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
