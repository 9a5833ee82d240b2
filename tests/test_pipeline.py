import json
import os
import re

import numpy as np
import pytest

from fuzzyloc.data import Dataset
from fuzzyloc.errors import ConfigError, InvalidInputError, SchemaError
from fuzzyloc.pipeline import (
    ExperimentConfig,
    build_report,
    format_confusion,
    render_report,
    run_experiment,
    split_scenario,
    train_rulebase,
)


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
            ((9, 2**63), "64-bit"),
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

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                input_path="x.csv",
                label_column="label",
                feature_columns=("a",),
                strategy="mystery",
            )


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
