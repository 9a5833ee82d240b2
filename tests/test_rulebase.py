import dataclasses
import json

import numpy as np
import pytest

from fuzzyloc.data import Normalization
from fuzzyloc.errors import InvalidInputError, RuleBaseFormatError, RuleBaseVersionError
from fuzzyloc.fuzzy import SimilarityParams, TriangularFuzzySet, representative
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

    def test_explicit_universe_must_cover_training_labels(self):
        data = identity_normalized([[0.0], [1.0]], [1, 5])
        with pytest.raises(InvalidInputError, match="5"):
            extract_rules(data, k_max=1, label_universe=(1, 2, 3))

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

    def test_arrays_are_read_only_and_stay_out_of_equality(self):
        rb = small_rulebase()
        with pytest.raises(ValueError):
            rb.antecedents[0, 0, 0] = 9.0
        assert rb == small_rulebase()
        fields = {f.name for f in dataclasses.fields(rb)}
        assert fields.isdisjoint({"antecedents", "representatives", "consequents"})


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
