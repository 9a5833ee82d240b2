import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc.data import Dataset
from fuzzyloc.errors import ConfigError, InvalidInputError, SchemaError
from fuzzyloc.pipeline import (
    ExperimentConfig,
    build_report,
    format_confusion,
    render_predictions,
    render_report,
    run_experiment,
    split_scenario,
    train_rulebase,
)

from conftest import predictions_of


def config_for(corridor_csv, **overrides):
    base = dict(
        input_path=corridor_csv,
        label_column="room",
        feature_columns=("b1", "b2", "b3", "b4", "b5"),
        unseen_labels=(5,),
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_feature_columns_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(input_path="x.csv", label_column="label", feature_columns=())

    def test_cfs_rules_are_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                input_path="x.csv",
                label_column="label",
                feature_columns=("a",),
                cfs_top_n=2,
                cfs_epsilon=0.1,
            )

    @pytest.mark.parametrize(
        "universe, named",
        [
            ((1, 2, 3), "[9]"),
            ((3, 1, 8), "strictly increasing"),
            ((), "non-empty"),
            ((9, 2**63), "label_universe[1] must be <= 9223372036854775807, got 9223372036854775808"),
            (range(1, 1026), "1..1025"),
        ],
    )
    def test_a_bad_universe_fails_when_the_config_is_built(self, universe, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig(
                input_path="x.csv",
                label_column="label",
                feature_columns=("a",),
                unseen_labels=(9,),
                label_universe=universe,
            )

    @pytest.mark.parametrize("unseen, named", [
        ((2.7,), "unseen_labels[0] must be an integer, got float"),
        ((1, "3"), "unseen_labels[1] must be an integer, got str"),
        ((True,), "unseen_labels[0] must be an integer, got bool"),
        (("3",), "unseen_labels[0] must be an integer, got str"),
        ((10**20,), "unseen_labels[0] must be <= 9223372036854775807, got an integer beyond 64 bits"),
        (
            (-(10**5000),),
            "unseen_labels[0] must be >= -9223372036854775808, got an integer beyond 64 bits",
        ),
    ])
    def test_unseen_labels_are_integers(self, unseen, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig(
                input_path="x.csv", label_column="label", feature_columns=("a",), unseen_labels=unseen
            )
        # split_scenario neither truncates a label nor parses one
        dataset = Dataset(features=[[0.0], [1.0], [2.0]], labels=[1, 2, 3], feature_names=("a",))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            split_scenario(dataset, unseen)
        for accepted in [np.array([3], dtype=np.int16), (np.int64(3),)]:
            train, test = split_scenario(dataset, accepted)
            assert (train.labels.tolist(), test.labels.tolist()) == ([1, 2], [3])
        config = ExperimentConfig(
            input_path="x.csv", label_column="label", feature_columns=("a",),
            unseen_labels=np.array([3, 7], dtype=np.int16),
        )
        assert config.unseen_labels == (3, 7) and type(config.unseen_labels[0]) is int

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                input_path="x.csv",
                label_column="label",
                feature_columns=("a",),
                strategy="mystery",
            )

    @pytest.mark.parametrize("setting, named", [
        (dict(k_max=2.5), "k_max must be an integer, got float"),
        (dict(k_max=True), "k_max must be an integer, got bool"),
        (dict(k_max=0), "k_max must be >= 1, got 0"),
        (dict(k_max=-(10**5000)), "k_max must be >= 1, got an integer beyond 64 bits"),
        (dict(cfs_top_n=2.5), "cfs_top_n must be an integer, got float"),
        (dict(cfs_top_n=True), "cfs_top_n must be an integer, got bool"),
        (dict(cfs_top_n=0), "cfs_top_n must be >= 1, got 0"),
        (dict(cfs_top_n=-(10**5000)), "cfs_top_n must be >= 1, got an integer beyond 64 bits"),
        (dict(cfs_epsilon=float("nan")), "non-finite cfs_epsilon: nan"),
        (dict(cfs_epsilon="0.1"), "cfs_epsilon must be a real number, got str"),
        (dict(cfs_sort="yes"), "cfs_sort must be a bool, got str"),
        (dict(seed=1.5), "seed must be an integer, got float"),
        (dict(seed=-1, k_max=1), "seed must be >= 0, got -1"),
        (dict(seed=2**63), "seed must be <= 9223372036854775807, got 9223372036854775808"),
        (dict(seed=10**5000), "seed must be <= 9223372036854775807, got an integer beyond 64 bits"),
        (dict(h=True), "sensitivity factor h must be a real number, got bool"),
        (dict(h=-1.0), "sensitivity factor h must be > 0, got -1.0"),
        (dict(omega=float("inf")), "non-finite offset omega: inf"),
    ])
    def test_every_setting_is_checked_when_the_config_is_built(self, setting, named):
        # x.csv does not exist: the setting is refused before any input is read
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            ExperimentConfig(input_path="x.csv", label_column="label", feature_columns=("a",), **setting)

    def test_numeric_settings_are_held_as_plain_numbers(self):
        config = ExperimentConfig(
            input_path="x.csv", label_column="label", feature_columns=("a",),
            k_max=np.int64(3), seed=np.uint32(4), cfs_top_n=np.int8(2), h=np.float32(2.5), omega=1,
        )
        assert (config.k_max, config.seed, config.cfs_top_n, config.h, config.omega) == (3, 4, 2, 2.5, 1.0)
        assert {type(config.k_max), type(config.seed), type(config.cfs_top_n)} == {int}
        assert {type(config.h), type(config.omega)} == {float}
        assert json.loads(json.dumps(config.echo()))["clustering"] == {
            "strategy": "per-class", "k_max": 3, "seed": 4,
        }

    def test_numpy_settings_reach_the_artifacts(self, corridor_csv, tmp_path):
        out = tmp_path / "exp"
        run_experiment(config_for(corridor_csv, k_max=np.int64(3), seed=np.int64(1), output_dir=str(out)))
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["config_echo"]["clustering"] == {"strategy": "per-class", "k_max": 3, "seed": 1}


class TestSplitScenario:
    def make(self):
        return Dataset(
            features=[[float(i)] for i in range(6)],
            labels=[1, 1, 2, 2, 3, 3],
            feature_names=("f0",),
        )

    def test_partitions_by_label(self):
        train, test = split_scenario(self.make(), [2])
        assert train.labels.tolist() == [1, 1, 3, 3]
        assert test.labels.tolist() == [2, 2]
        assert train.n_instances + test.n_instances == 6

    def test_no_unseen_label_leaks_into_training(self):
        train, test = split_scenario(self.make(), [1, 3])
        assert set(train.labels.tolist()) == {2}
        assert set(test.labels.tolist()) == {1, 3}

    def test_empty_unseen_set_is_a_config_error(self):
        with pytest.raises(ConfigError):
            split_scenario(self.make(), [])

    def test_unseen_covering_everything_is_a_config_error(self):
        with pytest.raises(ConfigError):
            split_scenario(self.make(), [1, 2, 3])

    def test_unseen_label_absent_from_data_yields_empty_test(self):
        train, test = split_scenario(self.make(), [9])
        assert train.n_instances == 6
        assert test.n_instances == 0


class TestTrainRulebase:
    def test_missing_file_is_tagged_with_the_stage(self):
        config = config_for("does-not-exist.csv")
        with pytest.raises(ConfigError, match="load"):
            train_rulebase(config)

    def test_schema_errors_propagate(self, corridor_csv):
        config = config_for(corridor_csv, feature_columns=("b1", "nope"))
        with pytest.raises(SchemaError, match="nope"):
            train_rulebase(config)

    def test_unseen_labels_never_reach_the_rules(self, corridor_config):
        rb = train_rulebase(corridor_config).rule_base
        assert 5.0 not in {r.consequent for r in rb.rules}
        assert 5 in rb.label_universe  # still predictable

    def test_default_universe_spans_data_and_unseen(self, corridor_csv):
        config = config_for(corridor_csv, unseen_labels=(5, 12))
        trained = train_rulebase(config)
        assert trained.rule_base.label_universe == tuple(range(1, 13))

    def test_default_universe_is_bounded(self, corridor_csv):
        config = config_for(corridor_csv, unseen_labels=(5, 1025))
        with pytest.raises(InvalidInputError, match=re.escape("1..1025")):
            train_rulebase(config)
        trained = train_rulebase(config_for(corridor_csv, unseen_labels=(5, 1024)))
        assert trained.rule_base.label_universe == tuple(range(1, 1025))

    def test_cfs_projects_every_downstream_stage(self, corridor_csv):
        config = config_for(corridor_csv, cfs_top_n=3)
        trained = train_rulebase(config)
        rb = trained.rule_base
        assert len(rb.selected_features) == 3
        assert all(len(r.antecedents) == 3 for r in rb.rules)
        assert trained.ranking is not None
        assert trained.ranking.selected_indices() == rb.selected_features

    def test_epsilon_that_rejects_everything_is_a_config_error(self, corridor_csv):
        config = config_for(corridor_csv, cfs_epsilon=99.0)
        with pytest.raises(ConfigError, match="feature"):
            train_rulebase(config)

    def test_without_unseen_trains_on_everything(self, corridor_csv):
        config = config_for(corridor_csv, unseen_labels=())
        trained = train_rulebase(config)
        assert trained.test_raw is None
        assert trained.train.n_instances == 300


class TestRunExperiment:
    def test_report_is_self_consistent(self, corridor_config):
        result = run_experiment(corridor_config)
        report = result.report
        per_instance = report["per_instance"]
        assert report["n_test"] == len(per_instance) == 30
        recomputed = 100.0 * sum(
            1 for row in per_instance if row["label"] == row["truth"]
        ) / len(per_instance)
        assert report["accuracy_percent"] == recomputed
        assert report["n_correct"] == sum(
            1 for row in per_instance if row["label"] == row["truth"]
        )
        assert sum(map(sum, report["confusion"])) == report["n_test"]
        assert report["config_echo"]["clustering"]["seed"] == 42

    def test_requires_unseen_labels(self, corridor_csv):
        config = config_for(corridor_csv, unseen_labels=())
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_identical_configs_produce_identical_reports(self, corridor_config):
        first = run_experiment(corridor_config)
        second = run_experiment(corridor_config)
        assert render_report(first.report) == render_report(second.report)
        assert first.rule_base == second.rule_base

    def test_artifacts_are_written(self, corridor_csv, tmp_path):
        out = tmp_path / "exp"
        config = config_for(corridor_csv, output_dir=str(out))
        result = run_experiment(config)
        assert sorted(os.listdir(out)) == ["confusion.txt", "report.json", "rulebase.json"]
        on_disk = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert on_disk == json.loads(render_report(result.report))

    def test_empty_test_set_reports_no_instances(self, corridor_csv, tmp_path):
        config = config_for(corridor_csv, unseen_labels=(12,))
        result = run_experiment(config)
        report = result.report
        assert report["no_instances"] is True
        assert report["n_test"] == 0
        assert report["accuracy_percent"] is None
        assert report["distance_diag"] is None
        # the rendered document must still be valid strict JSON
        json.loads(render_report(report))


class TestConfusionText:
    def test_row_layout(self, corridor_config):
        result = run_experiment(corridor_config)
        text = format_confusion(result.evaluation)
        lines = text.splitlines()
        assert lines[0].split() == ["truth\\pred"] + [str(v) for v in range(1, 11)]
        assert len(lines) == 11
        row5 = lines[5].split()
        assert row5[0] == "5"
        assert sum(int(v) for v in row5[1:]) == 30


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)
LABELS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1]))
PATHS = st.one_of(
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9", "\u2603",
                             "\U0001f600", "a", "/"])),
)


class TestRenderPredictions:
    """The predictions document is json.dumps(doc, indent=2) + "\\n", byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(FLOATS, LABELS, FLOATS), max_size=5),
        rulebase_path=PATHS,
        input_path=PATHS,
    )
    def test_equals_the_stdlib_encoding(self, rows, rulebase_path, input_path):
        doc = {
            "rulebase": rulebase_path,
            "input": input_path,
            "predictions": [
                {"gamma": g, "label": label, "total_firing": t, "fallback_used": not t > 0.0}
                for g, label, t in rows
            ],
        }
        text = render_predictions(rulebase_path, input_path, predictions_of(rows))
        assert text == json.dumps(doc, indent=2) + "\n"


class TestRenderReport:
    """report.json is json.dumps(report, indent=2) + "\\n", byte for byte."""

    @pytest.fixture(scope="class")
    def corridor_report(self, corridor_config):
        return run_experiment(corridor_config).report

    def test_a_corridor_report_equals_the_stdlib_encoding(self, corridor_report):
        assert corridor_report["per_instance"] and corridor_report["confusion"]
        assert render_report(corridor_report) == json.dumps(corridor_report, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(LABELS, FLOATS, LABELS, FLOATS), max_size=4),
        confusion=st.lists(st.lists(st.integers(0, 2**64), max_size=3), max_size=3),
        percent=st.none() | FLOATS,
        path=PATHS,
        names=st.lists(PATHS, max_size=3),
    )
    def test_drawn_fields_equal_the_stdlib_encoding(
        self, corridor_report, rows, confusion, percent, path, names
    ):
        # the corridor report's fields in their order, holding no instance
        # or several, labels past 2**53, None percentages, and paths and
        # names that json.dumps must escape
        report = dict(corridor_report)
        report["config_echo"] = {**report["config_echo"], "input": path}
        report["selected_features"] = names
        report["no_instances"] = not rows
        report["accuracy_percent"] = report["within_1_percent"] = percent
        report["per_class"] = {
            str(truth): {"n_instances": 1, "n_correct": 0, "accuracy_percent": percent}
            for truth, *_ in rows
        }
        report["confusion"] = confusion
        report["per_instance"] = [
            {"truth": truth, "gamma": g, "label": label, "total_firing": t,
             "fallback_used": not t > 0.0}
            for truth, g, label, t in rows
        ]
        assert render_report(report) == json.dumps(report, indent=2) + "\n"

    def test_an_empty_evaluation_equals_the_stdlib_encoding(self, corridor_csv):
        report = run_experiment(config_for(corridor_csv, unseen_labels=(12,))).report
        assert report["no_instances"] is True and report["per_instance"] == []
        assert report["accuracy_percent"] is None and report["distance_diag"] is None
        assert render_report(report) == json.dumps(report, indent=2) + "\n"
