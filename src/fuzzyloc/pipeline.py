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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .curvature import rank_features
from .data import fit_normalization, label_universe as universe_of, load_csv
from .errors import ConfigError, FuzzylocError, InvalidInputError
from .fuzzy import SimilarityParams
from .inference import predict_batch
from .rulebase import DEFAULT_K_MAX, PER_CLASS, STRATEGIES, extract_rules, save_rulebase

RULEBASE_FILENAME = "rulebase.json"
REPORT_FILENAME = "report.json"
CONFUSION_FILENAME = "confusion.txt"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; echoed verbatim into the report."""

    input_path: str
    label_column: str
    feature_columns: tuple
    unseen_labels: tuple = ()
    cfs_top_n: Optional[int] = None
    cfs_epsilon: Optional[float] = None
    cfs_sort: bool = False
    h: float = 5.0
    omega: float = 5.0
    strategy: str = PER_CLASS
    k_max: int = DEFAULT_K_MAX
    seed: int = 0
    label_universe: Optional[tuple] = None
    output_dir: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(self, "unseen_labels", tuple(int(v) for v in self.unseen_labels))
        if self.label_universe is not None:
            try:
                universe = universe_of(self.unseen_labels, self.label_universe)
            except InvalidInputError as exc:
                raise ConfigError(str(exc)) from None
            object.__setattr__(self, "label_universe", universe)
        if not self.feature_columns:
            raise ConfigError("at least one feature column is required")
        if self.cfs_top_n is not None and self.cfs_epsilon is not None:
            raise ConfigError("cfs_top_n and cfs_epsilon are mutually exclusive")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")

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


@contextmanager
def _stage(name):
    """Tag pipeline errors with the stage they came from."""
    try:
        yield
    except FuzzylocError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def split_scenario(dataset, unseen_labels):
    """Hold out every instance of the unseen classes as the test set."""
    unseen = set(int(v) for v in unseen_labels)
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
    with _stage("load"):
        dataset = load_csv(config.input_path, config.label_column, config.feature_columns)
    universe = universe_of(dataset.labels.tolist() + [*config.unseen_labels], config.label_universe)

    if config.unseen_labels:
        with _stage("split"):
            train_raw, test_raw = split_scenario(dataset, config.unseen_labels)
    else:
        train_raw, test_raw = dataset, None

    with _stage("normalize"):
        train = fit_normalization(train_raw)

    ranking = None
    selected = None
    if config.cfs_enabled:
        with _stage("feature-selection"):
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

    with _stage("rules"):
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
    with _stage("predict"):
        evaluation = predict_batch(trained.rule_base, trained.test_raw)
    report = build_report(
        trained.rule_base,
        evaluation,
        config_echo=config.echo(),
        n_train=trained.train.n_instances,
    )
    if config.output_dir is not None:
        write_artifacts(config.output_dir, trained.rule_base, report, evaluation)
    return RunResult(rule_base=trained.rule_base, evaluation=evaluation, report=report)


def _percent(count, total):
    return None if total == 0 else 100.0 * count / total


def build_report(rb, evaluation, config_echo=None, n_train=None):
    """Assemble the machine-readable report for one evaluation."""
    truths = evaluation.truths
    preds = evaluation.predictions
    n = evaluation.n_instances

    per_class = {}
    for label in sorted(set(truths)):
        pairs = [(t, p) for t, p in zip(truths, preds) if t == label]
        correct = sum(1 for t, p in pairs if p.label == t)
        per_class[str(label)] = {
            "n_instances": len(pairs),
            "n_correct": correct,
            "accuracy_percent": _percent(correct, len(pairs)),
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
        "within_1_percent": _percent(
            sum(1 for t, p in zip(truths, preds) if abs(p.label - t) <= 1), n
        ),
        "within_2_percent": _percent(
            sum(1 for t, p in zip(truths, preds) if abs(p.label - t) <= 2), n
        ),
        "distance_diag": None if evaluation.no_instances else evaluation.mean_abs_error,
        "fallback_count": evaluation.fallback_count,
        "per_class": per_class,
        "confusion": [list(row) for row in evaluation.confusion],
        "per_instance": [{"truth": t, **prediction_fields(p)} for t, p in zip(truths, preds)],
    }


def prediction_fields(prediction):
    """One prediction as report.json and `fuzzyloc predict` list it."""
    return {
        "gamma": prediction.gamma,
        "label": prediction.label,
        "total_firing": prediction.total_firing,
        "fallback_used": prediction.fallback_used,
    }


def format_confusion(evaluation):
    """Plain-text confusion matrix, truth rows by predicted columns."""
    labels = [str(v) for v in evaluation.label_universe]
    cells = [[str(c) for c in row] for row in evaluation.confusion]
    width = max(
        [len("truth\\pred")] + [len(s) for s in labels] + [len(s) for row in cells for s in row]
    )

    def fmt(items):
        return "  ".join(s.rjust(width) for s in items)

    lines = [fmt(["truth\\pred"] + labels)]
    for label, row in zip(labels, cells):
        lines.append(fmt([label] + row))
    return "\n".join(lines) + "\n"


def render_report(report):
    return json.dumps(report, indent=2) + "\n"


def write_artifacts(output_dir, rule_base, report, evaluation):
    """Write rulebase.json, report.json and confusion.txt into output_dir."""
    os.makedirs(output_dir, exist_ok=True)
    save_rulebase(rule_base, os.path.join(output_dir, RULEBASE_FILENAME))
    with open(os.path.join(output_dir, REPORT_FILENAME), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(report))
    with open(
        os.path.join(output_dir, CONFUSION_FILENAME), "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write(format_confusion(evaluation))
