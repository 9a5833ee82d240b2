"""Command-line entry points.

Subcommands cover the whole workflow: `synth` fabricates a corridor
dataset, `rank-features` scores columns by curvature, `train` builds a
rule-base file, `predict`/`evaluate` apply one, and `run` chains the full
unseen-label experiment and writes all artifacts. Exit codes, which only
main assigns: 0 ok, 2 config or schema problem, 3 data problem, 4 bug.
"""

import argparse
import json
import re
import sys
import traceback

from .curvature import rank_features
from .data import fit_normalization, label_universe, load_csv, read_feature_rows
from .errors import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    ConfigError,
    DataError,
    InvalidInputError,
)
# predict is not called here; it stays importable as fuzzyloc.cli.predict
# because perfbench/layers.py hooks its tracer in at that name
from .inference import predict, predict_batch, predict_rows  # noqa: F401
from .pipeline import (
    ExperimentConfig,
    build_report,
    prediction_fields,
    render_report,
    run_experiment,
    train_rulebase,
)
from .rulebase import DEFAULT_K_MAX, PER_CLASS, STRATEGIES, load_rulebase, save_rulebase
from .synth import LABEL_COLUMN, generate_synthetic, write_csv

_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_label_universe(text):
    """Accept "1..21" (inclusive range) or an explicit list "1,2,5" (as given)."""
    text = text.strip()
    m = _RANGE.match(text)
    if not m:
        return _parse_ints(text, "label universe")
    try:
        return label_universe((), range(int(m.group(1)), int(m.group(2)) + 1))
    except InvalidInputError as exc:
        raise ConfigError(f"--label-universe {text}: {exc}") from None


def _parse_ints(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}; use a comma-separated integer list") from None


def _parse_cols(text):
    cols = tuple(name.strip() for name in text.split(",") if name.strip())
    if not cols:
        raise ConfigError("feature column list is empty")
    return cols


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args, output_dir=None):
    return ExperimentConfig(
        input_path=args.input,
        label_column=args.label_col,
        feature_columns=_parse_cols(args.feature_cols),
        unseen_labels=_parse_ints(args.unseen, "unseen labels") if args.unseen else (),
        cfs_top_n=args.cfs_top_n,
        cfs_epsilon=args.cfs_epsilon,
        cfs_sort=args.cfs_sort,
        h=args.h,
        omega=args.omega,
        strategy=args.strategy,
        k_max=args.k_max,
        seed=args.seed,
        label_universe=(
            parse_label_universe(args.label_universe) if args.label_universe else None
        ),
        output_dir=output_dir,
    )


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
    doc = {
        "rulebase": args.rulebase,
        "input": args.input,
        "predictions": [prediction_fields(p) for p in predict_rows(rb, rows)],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
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


def _add_model_flags(sub):
    sub.add_argument("--unseen", default=None, help="comma-separated labels held out of training")
    sub.add_argument("--cfs-top-n", type=int, default=None, help="keep the n best-ranked features")
    sub.add_argument(
        "--cfs-epsilon", type=float, default=None, help="keep features scoring above this"
    )
    sub.add_argument(
        "--cfs-sort",
        action="store_true",
        help="score features on value-sorted panels instead of dataset order",
    )
    sub.add_argument("--h", type=float, default=5.0, help="distance sensitivity (default: 5)")
    sub.add_argument("--omega", type=float, default=5.0, help="distance midpoint (default: 5)")
    sub.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=PER_CLASS,
        help="rule consequent strategy (default: per-class)",
    )
    sub.add_argument(
        "--k-max", type=int, default=DEFAULT_K_MAX, help="largest cluster count tried per class"
    )
    sub.add_argument("--seed", type=int, default=0, help="clustering seed (default: 0)")
    sub.add_argument(
        "--label-universe",
        default=None,
        help="labels the model may predict, as N..M or a comma list "
        "(default: span of dataset plus unseen labels)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzyloc",
        description="Sparse fuzzy-rule prediction of unseen integer labels from RSSI-style tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("rank-features", help="score and rank feature columns by curvature")
    _add_io_flags(sub)
    sub.add_argument("--cfs-top-n", type=int, default=None)
    sub.add_argument("--cfs-epsilon", type=float, default=None)
    sub.add_argument("--cfs-sort", action="store_true")
    sub.add_argument("--out", default=None, help="report path (default: stdout)")
    sub.set_defaults(func=cmd_rank_features)

    sub = commands.add_parser("train", help="build a rule-base file from labeled CSV data")
    _add_io_flags(sub)
    _add_model_flags(sub)
    sub.add_argument("--out", required=True, help="rule-base file to write")
    sub.set_defaults(func=cmd_train)

    sub = commands.add_parser("predict", help="predict labels for unlabeled rows")
    sub.add_argument("--rulebase", required=True, help="rule-base file from `train` or `run`")
    sub.add_argument("--input", required=True, help="CSV with the rule base's feature columns")
    sub.add_argument("--out", default=None, help="predictions path (default: stdout)")
    sub.set_defaults(func=cmd_predict)

    sub = commands.add_parser("evaluate", help="score a rule base against labeled rows")
    sub.add_argument("--rulebase", required=True, help="rule-base file from `train` or `run`")
    _add_io_flags(sub, with_features=False)
    sub.add_argument("--out", default=None, help="report path (default: stdout)")
    sub.set_defaults(func=cmd_evaluate)

    sub = commands.add_parser("run", help="full experiment: train on seen labels, test on unseen")
    _add_io_flags(sub)
    _add_model_flags(sub)
    sub.add_argument("--out", required=True, help="directory for rule base, report and confusion")
    sub.set_defaults(func=cmd_run)

    sub = commands.add_parser("synth", help="generate a synthetic corridor RSSI dataset")
    sub.add_argument("--rooms", type=int, default=10, help="rooms along the corridor (default: 10)")
    sub.add_argument("--per-room", type=int, default=30, help="instances per room (default: 30)")
    sub.add_argument("--beacons", type=int, default=5, help="beacon count (default: 5)")
    sub.add_argument("--noise-sd", type=float, default=0.5, help="noise std dev (default: 0.5)")
    sub.add_argument("--seed", type=int, default=42, help="generator seed (default: 42)")
    sub.add_argument("--out", required=True, help="CSV file to write")
    sub.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError, OSError) as exc:
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
