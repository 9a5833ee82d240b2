"""Command-line entry points.

Subcommands cover the whole workflow: `synth` fabricates a corridor
dataset, `rank-features` scores columns by curvature, `train` builds a
rule-base file, `predict`/`evaluate` apply one, and `run` chains the full
unseen-label experiment and writes all artifacts. Exit codes, which only
main assigns: 0 ok, 2 config or schema problem, 3 data problem, 4 bug.
"""

import argparse
import dataclasses
import json
import sys
import traceback
from functools import cache

from .curvature import rank_features
from .data import (
    _plain_number, fit_normalization, label_universe, load_csv, parse_label, read_feature_rows,
    write_text,
)
from .errors import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    ConfigError,
    DataError,
    prefixed,
)
# predict is not called here; it stays importable as fuzzyloc.cli.predict
# because perfbench/layers.py hooks its tracer in at that name
from .inference import predict, predict_batch, predict_rows  # noqa: F401
from .pipeline import (
    ExperimentConfig,
    build_report,
    render_predictions,
    render_report,
    run_experiment,
    train_rulebase,
)
from .rulebase import STRATEGIES, load_rulebase, save_rulebase
from .synth import LABEL_COLUMN, generate_synthetic, write_csv

def parse_label_universe(text):
    """Accept "1..21" (inclusive range) or an explicit list "1,2,5" (as
    given); each label is read as a CSV label cell is, plain or c<N>."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    if not dots:
        return _parse_labels(text, "--label-universe")
    first, last = _label(lo, "--label-universe"), _label(hi, "--label-universe")
    with prefixed(f"--label-universe {text}"):
        return label_universe((), range(first, last + 1))


def _label(text, flag):
    with prefixed(flag, as_type=ConfigError):
        return parse_label(text)[0]


def _parse_labels(text, flag):
    return tuple(_label(item, flag) for item in text.split(","))


def _number(kind):
    """An argparse type that reads a flag's text as kind, refusing the
    text a CSV number cell may not hold (see data._plain_number)."""

    def read(text):
        if not _plain_number(text):
            raise ValueError(text)
        return kind(text)

    read.__name__ = kind.__name__  # argparse: "invalid int value: '4_2'"
    return read


_INT, _FLOAT = _number(int), _number(float)


def _parse_cols(text):
    cols = tuple(name.strip() for name in text.split(",") if name.strip())
    if not cols:
        raise ConfigError("feature column list is empty")
    return cols


def _emit(text, out_path):
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


_CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(ExperimentConfig))


def _config_from_args(args, output_dir=None):
    """The ExperimentConfig of train or run. A parsed value whose dest
    names a config field passes through as parsed, unless it is one of
    the values read or renamed below (--label-universe is read)."""
    given = {name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS}
    given.update(
        input_path=args.input, label_column=args.label_col, output_dir=output_dir,
        feature_columns=_parse_cols(args.feature_cols),
        unseen_labels=_parse_labels(args.unseen, "--unseen") if args.unseen else (),
        label_universe=parse_label_universe(args.label_universe) if args.label_universe else None,
    )
    return ExperimentConfig(**given)


def cmd_rank_features(args):
    dataset = load_csv(args.input, args.label_col, _parse_cols(args.feature_cols))
    normalized = fit_normalization(dataset)
    top_n = args.cfs_top_n
    if top_n is None and args.cfs_epsilon is None:
        top_n = normalized.n_features  # rank everything, select nothing away
    ranking = rank_features(
        normalized, top_n=top_n, epsilon=args.cfs_epsilon, sort_values=args.cfs_sort
    )
    order = sorted(range(normalized.n_features), key=lambda i: ranking.ranks[i])
    doc = {
        "input": args.input,
        "n_instances": normalized.n_instances,
        "top_n": ranking.top_n,
        "epsilon": ranking.epsilon,
        "sorted_panels": ranking.sorted_panels,
        "features": [
            {
                "name": normalized.feature_names[i],
                "rank": ranking.ranks[i],
                "score": ranking.scores[i],
                "selected": ranking.selected[i],
            }
            for i in order
        ],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_train(args):
    config = _config_from_args(args)
    trained = train_rulebase(config)
    save_rulebase(trained.rule_base, args.out)
    rb = trained.rule_base
    print(
        f"wrote {args.out}: {rb.n_rules} rules over "
        f"{len(rb.selected_features)} of {len(rb.feature_names)} features"
    )
    return EXIT_OK


def cmd_predict(args):
    rb = load_rulebase(args.rulebase)
    rows = read_feature_rows(args.input, rb.feature_names)
    _emit(render_predictions(args.rulebase, args.input, predict_rows(rb, rows)), args.out)
    return EXIT_OK


def cmd_evaluate(args):
    rb = load_rulebase(args.rulebase)
    dataset = load_csv(args.input, args.label_col, rb.feature_names)
    evaluation = predict_batch(rb, dataset)
    report = build_report(
        rb,
        evaluation,
        config_echo={
            "input": args.input,
            "rulebase": args.rulebase,
            "label_column": args.label_col,
        },
    )
    _emit(render_report(report), args.out)
    return EXIT_OK


def cmd_run(args):
    config = _config_from_args(args, output_dir=args.out)
    result = run_experiment(config)
    report = result.report
    acc = report["accuracy_percent"]
    acc_text = "n/a (no test instances)" if acc is None else f"{acc:.2f}%"
    print(f"{report['n_test']} test instances, accuracy {acc_text}")
    print(f"artifacts in {args.out}")
    return EXIT_OK


def cmd_synth(args):
    dataset = generate_synthetic(
        n_rooms=args.rooms,
        per_room=args.per_room,
        n_beacons=args.beacons,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    write_csv(dataset, args.out)
    print(
        f"wrote {args.out}: {dataset.n_instances} rows, "
        f"{dataset.n_features} beacon columns, label column {LABEL_COLUMN!r}"
    )
    return EXIT_OK


def _add_io_flags(sub, with_features=True):
    sub.add_argument("--input", required=True, help="input CSV file")
    sub.add_argument("--label-col", default="label", help="label column name (default: label)")
    if with_features:
        sub.add_argument(
            "--feature-cols", required=True, help="comma-separated feature column names"
        )


def _add_cfs_flags(sub):
    sub.add_argument("--cfs-top-n", type=_INT, help="keep the n best-ranked features")
    sub.add_argument("--cfs-epsilon", type=_FLOAT, help="keep features scoring above this")
    sub.add_argument(
        "--cfs-sort",
        action="store_true",
        help="score features on value-sorted panels instead of dataset order",
    )


def _add_model_flags(sub):
    sub.add_argument("--unseen", default=None, help="comma-separated labels held out of training")
    _add_cfs_flags(sub)
    defaults = ExperimentConfig  # the flags' defaults, and so those their help shows
    for name, doc in (("h", "distance sensitivity"), ("omega", "distance midpoint")):
        value = getattr(defaults, name)
        sub.add_argument(f"--{name}", type=_FLOAT, default=value, help=f"{doc} (default: {value:g})")
    sub.add_argument(
        "--strategy", choices=STRATEGIES, default=defaults.strategy,
        help="rule consequent strategy (default: %(default)s)",
    )
    sub.add_argument(
        "--k-max", type=_INT, default=defaults.k_max, help="largest cluster count tried per class"
    )
    sub.add_argument(
        "--seed", type=_INT, default=defaults.seed, help="clustering seed (default: %(default)s)"
    )
    sub.add_argument(
        "--label-universe",
        default=None,
        help="labels the model may predict, as N..M or a comma list "
        "(default: span of dataset plus unseen labels)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzyloc",
        allow_abbrev=False,
        description="Sparse fuzzy-rule prediction of unseen integer labels from RSSI-style tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # a subparser does not inherit allow_abbrev; an abbreviated flag such
        # as --h (read as --help) would otherwise run as the flag it abbreviates
        return commands.add_parser(name, help=help, allow_abbrev=False)

    sub = command("rank-features", "score and rank feature columns by curvature")
    _add_io_flags(sub)
    _add_cfs_flags(sub)
    sub.add_argument("--out", default=None, help="report path (default: stdout)")

    sub = command("train", "build a rule-base file from labeled CSV data")
    _add_io_flags(sub)
    _add_model_flags(sub)
    sub.add_argument("--out", required=True, help="rule-base file to write")

    sub = command("predict", "predict labels for unlabeled rows")
    sub.add_argument("--rulebase", required=True, help="rule-base file from `train` or `run`")
    sub.add_argument("--input", required=True, help="CSV with the rule base's feature columns")
    sub.add_argument("--out", default=None, help="predictions path (default: stdout)")

    sub = command("evaluate", "score a rule base against labeled rows")
    sub.add_argument("--rulebase", required=True, help="rule-base file from `train` or `run`")
    _add_io_flags(sub, with_features=False)
    sub.add_argument("--out", default=None, help="report path (default: stdout)")

    sub = command("run", "full experiment: train on seen labels, test on unseen")
    _add_io_flags(sub)
    _add_model_flags(sub)
    sub.add_argument("--out", required=True, help="directory for rule base, report and confusion")

    sub = command("synth", "generate a synthetic corridor RSSI dataset")
    sub.add_argument("--rooms", type=_INT, default=10, help="rooms along the corridor (default: 10)")
    sub.add_argument("--per-room", type=_INT, default=30, help="instances per room (default: 30)")
    sub.add_argument("--beacons", type=_INT, default=5, help="beacon count (default: 5)")
    sub.add_argument("--noise-sd", type=_FLOAT, default=0.5, help="noise std dev (default: 0.5)")
    sub.add_argument("--seed", type=_INT, default=42, help="generator seed (default: 42)")
    sub.add_argument("--out", required=True, help="CSV file to write")

    return parser


@cache
def _parser():
    """The parser every call of main parses with, built on the first."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so the command
    # run is the one the module holds under its cmd_ name at that moment
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ConfigError, OSError) as exc:
        # readers raise ConfigError for their files, so an OSError is an output's
        print(f"fuzzyloc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"fuzzyloc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
