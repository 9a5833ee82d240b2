"""Write the deterministic artifacts of every benchmark workload into one tree.

    python3 tools/artifacts.py OUTDIR [--root CHECKOUT] [--seeds 1 2 42] [--size full|tiny]

Imports fuzzyloc from CHECKOUT/src and WORKLOADS from
CHECKOUT/perfbench/workloads.py (CHECKOUT defaults to the checkout holding
this file) and writes nothing into the checkout. For each workload, seed
and input variant (variant_seed draws each variant's seed), it runs
set_up(), one train_pass() and then `fuzzyloc predict` through cli.main on
each serving target, and `fuzzyloc evaluate` and `fuzzyloc rank-features`
on the target's labeled rows. It keeps rulebase.json, report.json,
confusion.txt and the predictions, evaluation and ranking JSON under
OUTDIR/<workload>/s<seed>/, one v<variant> folder deeper for a workload
with several variants: one of every kind of artifact that fuzzyloc writes.

Each training config is also given to `fuzzyloc train` and `fuzzyloc run`
through cli.main, as the flags that name its fields, into cli/train/ and
cli/run/ beside the artifacts of its library run; their rulebase.json,
report.json and confusion.txt must equal the library run's, or the tool
stops with an error.

Every run works in the same relative path below a fresh temporary
directory, so the paths that report.json and the predictions echo are the
same whichever checkout runs: checkouts that write the same artifacts give
trees that `diff -r` finds identical.
"""

import argparse
import contextlib
import csv
import os
import shutil
import sys
import tempfile
from pathlib import Path

RUN_FILES = ("rulebase.json", "report.json", "confusion.txt")  # what `fuzzyloc run` writes
KEPT = (*RUN_FILES, "predictions.json", "evaluation.json", "ranking.json")


def import_checkout(root):
    """fuzzyloc.cli and perfbench's workloads module, both from root."""
    sys.dont_write_bytecode = True  # the checkout is only read
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import fuzzyloc.cli
    import workloads

    for module in (fuzzyloc.cli, workloads):
        if root not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"artifacts: {module.__name__} was imported from {module.__file__}")
    return fuzzyloc.cli, workloads


def comma_list(values):
    """values joined by commas, or None when there are none."""
    return ",".join(map(str, values)) if values else None


def config_argv(config):
    """The train and run flags that build config, each as --flag=value."""
    flags = {
        "input": config.input_path, "label-col": config.label_column,
        "feature-cols": comma_list(config.feature_columns),
        "unseen": comma_list(config.unseen_labels),
        "label-universe": comma_list(config.label_universe),
        "cfs-top-n": config.cfs_top_n, "cfs-epsilon": config.cfs_epsilon,
        "strategy": config.strategy, "k-max": config.k_max, "seed": config.seed,
        "h": config.h, "omega": config.omega,
    }
    argv = [f"--{flag}={value}" for flag, value in flags.items() if value is not None]
    return argv + ["--cfs-sort"] * config.cfs_sort


def run_configs(cli, wl):
    """Train and run each of the workload's configs through cli.main into
    cli/ beside its library run's artifacts, which they must equal."""
    for config in wl.configs:
        api = Path(config.output_dir)
        out = api / "cli"
        (out / "train").mkdir(parents=True, exist_ok=True)
        for command, target in (("train", out / "train" / "rulebase.json"), ("run", out / "run")):
            argv = [command, *config_argv(config), "--out", str(target)]
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main(argv) != 0:
                    raise SystemExit(f"artifacts: fuzzyloc {' '.join(argv)} failed")
        pairs = [(out / "train" / "rulebase.json", api / "rulebase.json")]
        pairs += [(out / "run" / name, api / name) for name in RUN_FILES]
        for mine, theirs in pairs:
            if mine.read_bytes() != theirs.read_bytes():
                raise SystemExit(f"artifacts: {mine} differs from the library run's {theirs}")


def run_variant(cli, wl, label):
    """Train the workload, then label, score and rank each target's rows
    (label names their label column) with its rule base."""
    wl.set_up()
    wl.train_pass()
    run_configs(cli, wl)
    for target in wl.targets:
        folder = os.path.dirname(target.rulebase_path)
        with open(target.query_path, encoding="utf-8", newline="") as fh:
            features = ",".join(name for name in next(csv.reader(fh)) if name != label)
        rows = ["--input", target.query_path]
        labeled = [*rows, "--label-col", label]
        for name, argv in (
            ("predictions", ["predict", "--rulebase", target.rulebase_path, *rows]),
            ("evaluation", ["evaluate", "--rulebase", target.rulebase_path, *labeled]),
            ("ranking", ["rank-features", *labeled, "--feature-cols", features]),
        ):
            argv += ["--out", os.path.join(folder, f"{name}.json")]
            if cli.main(argv) != 0:
                raise SystemExit(f"artifacts: fuzzyloc {' '.join(argv)} failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", help="directory to write the artifact tree into (new or empty)")
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1], type=Path,
                        help="checkout to import fuzzyloc and the workloads from")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 42])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty")
    cli, workloads = import_checkout(args.root.resolve())

    home, work = os.getcwd(), tempfile.mkdtemp(prefix="artifacts-")
    try:
        os.chdir(work)
        for name, kind in workloads.WORKLOADS.items():
            for seed in args.seeds:
                for variant in range(kind.variants):
                    rel = Path(name, f"s{seed}", *([f"v{variant}"] if kind.variants > 1 else []))
                    wl = kind(args.size, workloads.variant_seed(seed, variant), str(rel))
                    run_variant(cli, wl, workloads.LABEL)
                    for path in sorted(rel.rglob("*")):
                        if path.name in KEPT:
                            (outdir / path).parent.mkdir(parents=True, exist_ok=True)
                            shutil.copyfile(path, outdir / path)
                    print(f"artifacts: {rel}", file=sys.stderr)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
