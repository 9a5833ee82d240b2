"""Measurement, correctness checks and result assembly behind run.py.

Imported only after run.py has capped the BLAS/OpenMP threads and put the
program's ``src/`` directory on the import path.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

from checks import check_prediction, crisp_sets, sample_indices
from layers import build_tracer, layer_metrics
from micro import micro_timings
from stopwatch import Stopwatch
from workloads import WORKLOADS, serve, variant_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"
REFERENCE_PATH = HERE / "reference.json"

# labels of every workload at this seed are recorded in reference.json
REFERENCE_SEED = 42
MIN_PASSES = 3
# p99 needs at least ten samples beyond it
MIN_LATENCY_SAMPLES = 1000
# on training workloads each serving part repeats for at least this long, so
# that short parts are not timed from a few milliseconds of work
SERVE_PART_S = 0.3
CHECK_SAMPLE = 16
CHECK_FALLBACK_SAMPLE = 8
IMPORT_REPEATS = {"full": 7, "tiny": 1}
SETUP_REPEATS = {"full": 3, "tiny": 1}
MICRO_REPEATS = {"full": 5, "tiny": 1}
COUNT_METRICS = (
    "curvature.triples",
    "clustering.kmeans_fits",
    "clustering.repeat_fits",
    "rulebase.n_rules",
    "rulebase.json_bytes",
    "inference.rule_dim_evals",
    "inference.fallback_rows",
    "pipeline.report_bytes",
    "cli.output_bytes",
    "trace.spans",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fuzzyloc; print(repr(time.perf_counter() - t))"
)


class Ledger:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed=0, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(f"{failed} failed: {note}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _mismatches(got, want):
    return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


# -- correctness ---------------------------------------------------------


def check_experiments(wl, results, first, ledger):
    """One operation per experiment; the first pass is checked against the
    scalar reference and its artifacts, later passes against the first."""
    for i, (result, target) in enumerate(zip(results, wl.targets)):
        preds = result.evaluation.predictions
        ok = len(preds) == len(target.rows)
        if first is None:
            for j in sample_indices(len(preds), CHECK_SAMPLE) if ok else ():
                ok &= check_prediction(
                    result.rule_base, crisp_sets(target.rows[j]), preds[j].gamma, preds[j].label
                )
            ok &= all(
                os.path.isfile(os.path.join(wl.configs[i].output_dir, name))
                for name in ("rulebase.json", "report.json", "confusion.txt")
            )
        else:
            ok &= [p.label for p in preds] == [p.label for p in first[i].evaluation.predictions]
            ok &= [p.gamma for p in preds] == [p.gamma for p in first[i].evaluation.predictions]
        ledger.add(1, 0 if ok else 1, f"experiment {i} ({wl.name})")


def check_served(wl, served, first, train_results, ledger):
    """One operation per predicted row and per fuzzy observation."""
    for i, target in enumerate(wl.targets):
        rb = served.rulebases[i]
        fuzzy = served.fuzzy_preds[i]
        groups = []
        if served.cli_outputs:
            groups.append([(p["label"], p["gamma"]) for p in served.cli_outputs[i]])
        if served.latency_preds[i]:
            groups.append([(p.label, p.gamma) for p in served.latency_preds[i]])
        if train_results:
            expected = [(p.label, p.gamma) for p in train_results[i].evaluation.predictions]
        elif first is not None:
            expected = [(p["label"], p["gamma"]) for p in first.cli_outputs[i]]
        else:
            expected = groups[0]
        for got in groups:
            bad = _mismatches(got, expected)
            if first is None:
                fallback_rows = [j for j, p in enumerate(served.latency_preds[i] or []) if p.fallback_used]
                for j in sample_indices(len(got), CHECK_SAMPLE) + fallback_rows[:CHECK_FALLBACK_SAMPLE]:
                    if j < len(got) and not check_prediction(rb, crisp_sets(target.rows[j]), got[j][1], got[j][0]):
                        bad += 1
            ledger.add(len(target.rows), bad, f"served rows of target {i} ({wl.name})")
        if fuzzy:
            bad = 0
            if first is None:
                for j in sample_indices(len(fuzzy), CHECK_SAMPLE):
                    if not check_prediction(rb, target.fuzzy_obs[j], fuzzy[j].gamma, fuzzy[j].label):
                        bad += 1
            else:
                bad += _mismatches([(p.label, p.gamma) for p in fuzzy],
                                   [(p.label, p.gamma) for p in first.fuzzy_preds[i]])
            ledger.add(len(target.fuzzy_obs), bad, f"fuzzy observations of target {i} ({wl.name})")


def predicted_labels(wl, results, served):
    """The label vectors recorded in reference.json: the experiments' labels
    on training workloads, the CLI and fuzzy-observation labels on the
    serving-only one."""
    if results:
        return {"labels": [p.label for r in results for p in r.evaluation.predictions]}
    return {
        "labels": [p["label"] for out in served.cli_outputs for p in out],
        "fuzzy_labels": [p.label for preds in served.fuzzy_preds for p in preds],
    }


def reference_pass(name, size, workdir, ledger):
    """Warm-up on the fixed reference input, compared with recorded labels."""
    wl = WORKLOADS[name](size, REFERENCE_SEED, os.path.join(workdir, "reference"))
    wl.set_up()
    results = wl.train_pass()
    served = None if wl.trains else serve(wl.targets, wl.workdir, Stopwatch(False), latency_repeats=0)
    got = predicted_labels(wl, results, served)
    if REFERENCE_PATH.is_file():
        recorded = json.loads(REFERENCE_PATH.read_text())[size][name]
        for key, labels in recorded.items():
            ledger.add(len(labels), _mismatches(got.get(key, []), labels),
                       f"{key} differ from the recorded reference ({name})")
    else:
        ledger.add(1, 1, f"{REFERENCE_PATH.name} is missing")
    return got


# -- quality -------------------------------------------------------------


def quality(wl, results, served):
    """Mean accuracy over experiments and per-held-out-room detail."""
    experiments = []  # (truths, labels, gammas, fallbacks) per experiment
    if results:
        for r in results:
            ev = r.evaluation
            experiments.append((list(ev.truths), [p.label for p in ev.predictions],
                                [p.gamma for p in ev.predictions], [p.fallback_used for p in ev.predictions]))
    else:
        for target, out in zip(wl.targets, served.cli_outputs):
            experiments.append((target.truths.tolist(), [p["label"] for p in out],
                                [p["gamma"] for p in out], [p["fallback_used"] for p in out]))

    def rates(truths, labels, gammas):
        n = len(truths)
        return (sum(t == lab for t, lab in zip(truths, labels)) / n,
                sum(abs(t - lab) <= 1 for t, lab in zip(truths, labels)) / n,
                sum(abs(g - t) for t, g in zip(truths, gammas)) / n)

    per_experiment = [rates(t, lab, g) for t, lab, g, _ in experiments]
    rooms = []
    for target, (truths, labels, gammas, fallbacks) in zip(wl.targets, experiments):
        for room in target.held_out:
            idx = [j for j, t in enumerate(truths) if t == room]
            exact, within1, _ = rates([truths[j] for j in idx], [labels[j] for j in idx],
                                      [gammas[j] for j in idx])
            rooms.append({"room": room, "n": len(idx), "acc_exact": exact, "acc_within1": within1,
                          "mean_gamma": sum(gammas[j] for j in idx) / len(idx),
                          "fallback_rows": sum(fallbacks[j] for j in idx)})
    summary = {
        "acc_exact": sum(e[0] for e in per_experiment) / len(per_experiment),
        "acc_within1": sum(e[1] for e in per_experiment) / len(per_experiment),
        "distance_diag": sum(e[2] for e in per_experiment) / len(per_experiment),
        "acc_within1_worst": min(r["acc_within1"] for r in rooms),
    }
    return summary, rooms


# -- set-up --------------------------------------------------------------


def import_seconds():
    """Time ``import fuzzyloc`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(wl, size):
    """Median fresh-interpreter import plus median workload set-up, each
    normalized and raw."""
    stopwatch = Stopwatch()
    import_seconds()  # warm the file cache and write bytecode
    imports, setups = [], []
    for _ in range(IMPORT_REPEATS[size]):
        stopwatch.start()
        raw = import_seconds()
        imports.append((raw * stopwatch.lap(), raw))
    for _ in range(SETUP_REPEATS[size]):
        stopwatch.start()
        t0 = time.perf_counter()
        wl.set_up()
        raw = time.perf_counter() - t0
        setups.append((raw * stopwatch.lap(), raw))
    return [statistics.median(v[i] for v in imports) + statistics.median(v[i] for v in setups)
            for i in (0, 1)]


# -- untraced run --------------------------------------------------------


def measure(wls, seconds, ledger):
    """Timed cycles for ``seconds``; returns (metrics, samples, first results, first serve).

    A cycle is one training pass (training workloads) followed by one serving
    pass, so every metric samples the whole run rather than one stretch of
    it. Cycles go round the workload's input variants. Per-row latency
    repeats the rows so that ``MIN_PASSES`` cycles give at least
    ``MIN_LATENCY_SAMPLES`` rows. Times are normalized (stopwatch.py); the
    raw medians go to the samples line.
    """
    stopwatch = Stopwatch()
    n_rows = sum(len(t.rows) for t in wls[0].targets)
    repeats = -(-MIN_LATENCY_SAMPLES // (MIN_PASSES * n_rows))
    # the serving pass is the timed pass of the serving-only workload, so
    # its work stays fixed there
    part_s = SERVE_PART_S if wls[0].trains else 0.0
    deadline = time.perf_counter() + seconds
    walls, cli_rates, fuzzy_ms, row_ms = [], [], [], []
    raw = {"wall_s": [], "row_ms": [], "fuzzy_ms": []}
    firsts = {}
    cycle = 0
    while cycle < max(MIN_PASSES, len(wls)) or time.perf_counter() < deadline:
        variant = cycle % len(wls)
        wl, first = wls[variant], firsts.get(variant)
        results = []
        if wl.trains:
            stopwatch.start()
            t0 = time.perf_counter()
            results = wl.train_pass()
            elapsed = time.perf_counter() - t0
            walls.append(elapsed * stopwatch.lap())
            raw["wall_s"].append(elapsed)
            check_experiments(wl, results, first and first[0], ledger)
        served = serve(wl.targets, wl.workdir, stopwatch, latency_repeats=repeats, min_part_s=part_s)
        check_served(wl, served, first and first[1], results, ledger)
        firsts.setdefault(variant, (results, served))
        if not wl.trains:
            walls.append(served.wall_s)
            raw["wall_s"].append(served.raw_wall_s)
        row_ms += served.row_ms
        raw["row_ms"] += served.raw_row_ms
        cli_rates.append(served.cli_rows / served.cli_s)
        fuzzy_ms += served.fuzzy_ms
        raw["fuzzy_ms"] += served.raw_fuzzy_ms
        cycle += 1

    metrics = {
        "wall_s": (_median(walls), "s"),
        "predict_rows_per_s": (_median(cli_rates), "1/s"),
        "predict_row_ms_p50": (statistics.median(row_ms), "ms"),
        "predict_fuzzy_rows_per_s": (1e3 / statistics.median(fuzzy_ms), "1/s"),
    }
    raw_rows = sorted(raw["row_ms"])
    samples = {
        "passes": len(walls), "latency_rows": len(row_ms), "fuzzy_rows": len(fuzzy_ms),
        "raw_wall_s": statistics.median(raw["wall_s"]),
        "raw_row_ms_p50": statistics.median(raw_rows),
        "raw_row_ms_p99": statistics.quantiles(raw_rows, n=100, method="inclusive")[98],
        "raw_fuzzy_rows_per_s": 1e3 / statistics.median(raw["fuzzy_ms"]),
    }
    return metrics, samples, *firsts[0]


# -- traced run ----------------------------------------------------------


def traced_rounds(wl, seconds, ledger, tracer):
    """Alternate untraced and traced rounds (set-up, training pass, serving
    pass) for ``seconds``; returns per-layer metrics and round outputs."""
    def one_round():
        t0 = time.perf_counter()
        wl.set_up()
        results = wl.train_pass()
        served = serve(wl.targets, wl.workdir, Stopwatch(False))
        return time.perf_counter() - t0, results, served

    start = time.perf_counter()
    untraced, traced, dumps = [], [], []
    first = None
    while not traced or time.perf_counter() < start + seconds:
        wall, results, served = one_round()
        untraced.append(wall)
        check_experiments(wl, results, first and first[0], ledger)
        check_served(wl, served, first and first[1], results, ledger)
        first = first or (results, served)

        tracer.reset()
        with tracer.installed():
            wall, results, served = one_round()
        check_experiments(wl, results, first[0], ledger)
        check_served(wl, served, first[1], results, ledger)
        traced.append(layer_metrics(tracer, wall))
        dumps.append(tracer.dump())

    for name in COUNT_METRICS:
        values = {m[name][0] for m in traced}
        if len(values) > 1:
            ledger.add(0, 1, f"counter {name} differs between traced rounds: {sorted(values)}")
    metrics = {name: (_median([m[name][0] for m in traced]), unit) for name, (_, unit) in traced[0].items()}
    untraced_wall = _median(untraced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return metrics, first, dumps


# -- one run --------------------------------------------------------------


def run_record(workload, seed, seconds, trace, size):
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, cwd=ROOT, env=env)
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "size": size, "reference_seed": REFERENCE_SEED, "python": platform.python_version(),
        "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": commit, "closed_loop_callers": 1,
    }


def run_workload(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns the result object printed as the last line."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=WORK_ROOT)
    ledger = Ledger()
    record = run_record(workload, seed, seconds, trace, size)
    try:
        print(json.dumps({"run": record}), flush=True)
        kind = WORKLOADS[workload]
        wls = [kind(size, variant_seed(seed, v), os.path.join(workdir, f"run-{v}"))
               for v in range(kind.variants)]
        wl = wls[0]
        reference_pass(workload, size, workdir, ledger)
        if trace:
            metrics = micro_timings(seed, MICRO_REPEATS[size])
            tracer = build_tracer()
            layer, (results, served), dumps = traced_rounds(wl, seconds, ledger, tracer)
            metrics.update(layer)
            summary, rooms = quality(wl, results, served)
            metrics.update({name: (value, "ratio" if name.startswith("acc") else "label")
                            for name, value in summary.items()})
            TRACE_ROOT.mkdir(exist_ok=True)
            trace_path = TRACE_ROOT / f"trace-{workload}-s{seed}.json"
            trace_path.write_text(json.dumps({"record": record, "rounds": dumps}))
        else:
            setup_s, raw_setup_s = measure_setup(wl, size)
            metrics, samples, results, served = measure(wls, seconds, ledger)
            metrics["setup_s"] = (setup_s, "s")
            samples["raw_setup_s"] = raw_setup_s
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            summary, rooms = quality(wl, results, served)
            print(json.dumps({"samples": samples}), flush=True)
        print(json.dumps({"quality": summary, "held_out_rooms": rooms}), flush=True)
    except Exception as exc:  # a failing program still yields a result line
        traceback.print_exc()
        ledger.add(1, 1, f"run aborted: {exc!r}")
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics["failed_share"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    for note in ledger.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
