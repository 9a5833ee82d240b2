"""End-to-end experiment pipeline.

Wires the stages together for unseen-label experiments: load a labeled
CSV, hold out the unseen classes, fit normalization on the remaining
training rows, optionally select features by curvature, extract rules,
then predict the held-out rows and write report artifacts. Every stage is
deterministic given the config, so runs with identical configs produce
byte-identical files.
"""

import json
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .curvature import rank_features
from .data import _labels, fit_normalization, label_universe as universe_of, load_csv, write_text
from .errors import ConfigError, prefixed
from .fuzzy import INT64_MAX, SimilarityParams, _finite_real, _integer, _seed
from .inference import predict_batch
from .rulebase import DEFAULT_K_MAX, PER_CLASS, STRATEGIES, extract_rules, save_rulebase

RULEBASE_FILENAME = "rulebase.json"
REPORT_FILENAME = "report.json"
CONFUSION_FILENAME = "confusion.txt"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; echoed verbatim into the report.

    Every setting is checked, and held as a plain int, float or tuple,
    when the config is built; only the bounds that depend on the data,
    such as cfs_top_n <= the feature count, wait for the run.
    """

    input_path: str
    label_column: str
    feature_columns: tuple
    unseen_labels: tuple = ()
    cfs_top_n: Optional[int] = None
    cfs_epsilon: Optional[float] = None
    cfs_sort: bool = False
    h: float = SimilarityParams.h
    omega: float = SimilarityParams.omega
    strategy: str = PER_CLASS
    k_max: int = DEFAULT_K_MAX
    seed: int = 0
    label_universe: Optional[tuple] = None
    output_dir: Optional[str] = None

    def __post_init__(self):
        unseen = _labels(self.unseen_labels, "unseen_labels")
        params = SimilarityParams(self.h, self.omega)
        checked = dict(
            feature_columns=tuple(self.feature_columns), unseen_labels=unseen, h=params.h,
            omega=params.omega, k_max=_integer(self.k_max, "k_max", 1, INT64_MAX),
            seed=_seed(self.seed),
        )
        if self.label_universe is not None:
            checked["label_universe"] = universe_of(unseen, self.label_universe)
        if self.cfs_top_n is not None:
            checked["cfs_top_n"] = _integer(self.cfs_top_n, "cfs_top_n", 1, INT64_MAX)
        if self.cfs_epsilon is not None:
            checked["cfs_epsilon"] = _finite_real(self.cfs_epsilon, "cfs_epsilon")
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if type(self.cfs_sort) is not bool:
            raise ConfigError(f"cfs_sort must be a bool, got {type(self.cfs_sort).__name__}")
        if not self.feature_columns:
            raise ConfigError("at least one feature column is required")
        if self.cfs_top_n is not None and self.cfs_epsilon is not None:
            raise ConfigError("cfs_top_n and cfs_epsilon are mutually exclusive")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )

    @property
    def cfs_enabled(self):
        return self.cfs_top_n is not None or self.cfs_epsilon is not None

    def echo(self):
        """Config as a plain dict for the report."""
        return {
            "input": self.input_path,
            "label_column": self.label_column,
            "feature_columns": list(self.feature_columns),
            "unseen_labels": list(self.unseen_labels),
            "cfs": {
                "enabled": self.cfs_enabled,
                "top_n": self.cfs_top_n,
                "epsilon": self.cfs_epsilon,
                "sort_panels": self.cfs_sort,
            },
            "similarity": {"h": self.h, "omega": self.omega},
            "clustering": {"strategy": self.strategy, "k_max": self.k_max, "seed": self.seed},
            "label_universe": None if self.label_universe is None else list(self.label_universe),
        }


def split_scenario(dataset, unseen_labels):
    """Hold out every instance of the unseen classes as the test set."""
    unseen = set(_labels(unseen_labels, "unseen_labels"))
    if not unseen:
        raise ConfigError("unseen label set must be non-empty")
    test_mask = np.isin(dataset.labels, sorted(unseen))
    if test_mask.all():
        raise ConfigError("unseen labels cover every instance; nothing is left to train on")
    return dataset.subset(~test_mask), dataset.subset(test_mask)


class TrainResult(NamedTuple):
    rule_base: object
    ranking: object  # None when feature selection is off
    train: object  # normalized training dataset
    test_raw: object  # raw held-out dataset, None when nothing was held out


def train_rulebase(config):
    """Run the training half of the pipeline: load, split, normalize, rules."""
    with prefixed("load"):
        dataset = load_csv(config.input_path, config.label_column, config.feature_columns)
    universe = universe_of(dataset.labels.tolist() + [*config.unseen_labels], config.label_universe)

    if config.unseen_labels:
        with prefixed("split"):
            train_raw, test_raw = split_scenario(dataset, config.unseen_labels)
    else:
        train_raw, test_raw = dataset, None

    with prefixed("normalize"):
        train = fit_normalization(train_raw)

    ranking = None
    selected = None
    if config.cfs_enabled:
        with prefixed("feature-selection"):
            ranking = rank_features(
                train,
                top_n=config.cfs_top_n,
                epsilon=config.cfs_epsilon,
                sort_values=config.cfs_sort,
            )
            selected = ranking.selected_indices()
            if not selected:
                raise ConfigError(
                    f"epsilon {config.cfs_epsilon} filtered out every feature"
                )

    with prefixed("rules"):
        rb = extract_rules(
            train,
            selected_features=selected,
            strategy=config.strategy,
            seed=config.seed,
            params=SimilarityParams(h=config.h, omega=config.omega),
            k_max=config.k_max,
            label_universe=universe,
        )
    return TrainResult(rule_base=rb, ranking=ranking, train=train, test_raw=test_raw)


class RunResult(NamedTuple):
    rule_base: object
    evaluation: object
    report: dict


def run_experiment(config):
    """Full pipeline; writes artifacts when config.output_dir is set."""
    if not config.unseen_labels:
        raise ConfigError("an unseen-label experiment needs at least one unseen label")
    trained = train_rulebase(config)
    with prefixed("predict"):
        evaluation = predict_batch(trained.rule_base, trained.test_raw)
    report = build_report(trained.rule_base, evaluation, config_echo=config.echo(),
                          n_train=trained.train.n_instances)
    if config.output_dir is not None:
        write_artifacts(config.output_dir, trained.rule_base, report, evaluation)
    return RunResult(rule_base=trained.rule_base, evaluation=evaluation, report=report)


def _percent(count, total):
    return None if total == 0 else 100.0 * count / total


def build_report(rb, evaluation, config_echo=None, n_train=None):
    """Assemble the machine-readable report for one evaluation."""
    n = evaluation.n_instances
    # a truth row of the confusion counts its label's instances, the diagonal cell its correct ones
    per_class = {
        str(label): {"n_instances": sum(row), "n_correct": row[i],
                     "accuracy_percent": _percent(row[i], sum(row))}
        for i, (label, row) in enumerate(zip(evaluation.label_universe, evaluation.confusion))
        if any(row)
    }

    return {
        "config_echo": config_echo,
        "n_train": n_train,
        "n_test": n,
        "selected_features": [rb.feature_names[i] for i in rb.selected_features],
        "n_rules": rb.n_rules,
        "label_universe": list(rb.label_universe),
        "no_instances": evaluation.no_instances,
        "n_correct": evaluation.n_correct,
        "accuracy_percent": _percent(evaluation.n_correct, n),
        "within_1_percent": _percent(evaluation.n_within(1), n),
        "within_2_percent": _percent(evaluation.n_within(2), n),
        "distance_diag": None if evaluation.no_instances else evaluation.mean_abs_error,
        "fallback_count": evaluation.fallback_count,
        "per_class": per_class,
        "confusion": [list(row) for row in evaluation.confusion],
        "per_instance": [
            dict(zip(("truth", *_PREDICTION_FIELDS), row))
            for row in zip(evaluation.truths, *evaluation.predictions.columns())
        ],
    }


# A listed prediction's fields in order, each with the %-conversion that
# writes its value as json.dumps does: repr for a finite float, %d for the
# label, and %s for the flag, which comes last, given as JSON's true or false.
_PREDICTION_FIELDS = {"gamma": "%r", "label": "%d", "total_firing": "%r", "fallback_used": "%s"}
# a report's listed instance leads with its int truth label
_PREDICTION_ROW, _INSTANCE_ROW = (
    "    {\n%s\n    }" % ",\n".join(f'      "{name}": {spec}' for name, spec in fields.items())
    for fields in (_PREDICTION_FIELDS, {"truth": "%d", **_PREDICTION_FIELDS})
)


def _listed(items, indent="  "):
    """A list whose closing bracket sits at indent, as json.dumps(...,
    indent=2) writes it, from its items' text."""
    return "[\n%s\n%s]" % (",\n".join(items), indent) if items else "[]"


def render_predictions(rulebase_path, input_path, predictions):
    """The `fuzzyloc predict` document, byte for byte json.dumps(doc,
    indent=2) + "\n" of {"rulebase": ..., "input": ..., "predictions":
    [{"gamma": ..., "label": ..., "total_firing": ..., "fallback_used": ...},
    ...]} for Predictions with finite floats, as every call's are; the
    stdlib's encoder is pure Python once it indents, so each prediction is
    written by one %-template."""
    listed = _listed([
        _PREDICTION_ROW % (gamma, label, total, ("false", "true")[flag])
        for gamma, label, total, flag in zip(*predictions.columns())
    ])
    return (
        f'{{\n  "rulebase": {json.dumps(rulebase_path)},\n  "input": {json.dumps(input_path)},\n'
        f'  "predictions": {listed}\n}}\n'
    )


def format_confusion(evaluation):
    """Plain-text confusion matrix, truth rows by predicted columns."""
    labels = [str(v) for v in evaluation.label_universe]
    table = [["truth\\pred"] + labels]
    table += [[label] + [str(c) for c in row] for label, row in zip(labels, evaluation.confusion)]
    width = max(len(s) for row in table for s in row)
    return "".join("  ".join(s.rjust(width) for s in row) + "\n" for row in table)


def render_report(report):
    """report.json's text, byte for byte json.dumps(report, indent=2) +
    "\n" of a build_report dict, whose last fields are "confusion" and
    "per_instance" and whose floats there are finite: every field before
    them goes through json.dumps, each confusion row is its ints joined and
    each listed instance is written by one %-template."""
    *head, (_, confusion), (_, instances) = report.items()
    rows = ["    " + _listed([f"      {count}" for count in row], "    ") for row in confusion]
    listed = _listed([
        _INSTANCE_ROW % (truth, gamma, label, total, ("false", "true")[flag])
        for truth, gamma, label, total, flag in map(dict.values, instances)
    ])
    return (
        f'{json.dumps(dict(head), indent=2)[:-2]},\n  "confusion": {_listed(rows)},\n'
        f'  "per_instance": {listed}\n}}\n'
    )


def write_artifacts(output_dir, rule_base, report, evaluation):
    """Write rulebase.json, report.json and confusion.txt into output_dir."""
    os.makedirs(output_dir, exist_ok=True)
    save_rulebase(rule_base, os.path.join(output_dir, RULEBASE_FILENAME))
    write_text(os.path.join(output_dir, REPORT_FILENAME), render_report(report))
    write_text(os.path.join(output_dir, CONFUSION_FILENAME), format_confusion(evaluation))
