"""Tiny-size smoke mode and the reference-label recorder.

``python3 perfbench/run.py --smoke`` runs every workload at the ``tiny``
size, untraced once and traced twice, and fails unless every run is correct,
the traced counters repeat exactly between the two traced runs, and each mode
reports exactly the metrics ``BENCHMARK.json`` names.

``python3 perfbench/run.py --record-reference`` rewrites ``reference.json``
from the program as it is. The file pins the labels the unmodified program
produced at ``REFERENCE_SEED``; rewrite it only for a change that is meant to
alter labels, and say so where the change is described.
"""

import json
import shutil
import tempfile

import harness
from workloads import SIZES, WORKLOADS

SMOKE_SEED = 7
SMOKE_SECONDS = 1


def record_reference():
    harness.WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=harness.WORK_ROOT)
    try:
        doc = {"seed": harness.REFERENCE_SEED}
        for size in SIZES:
            doc[size] = {
                name: harness.reference_pass(name, size, workdir, harness.Ledger()) for name in WORKLOADS
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.REFERENCE_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {harness.REFERENCE_PATH}")
    return 0


def _declared(kind):
    path = harness.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"] for m in json.loads(path.read_text())[kind]}


def smoke():
    problems = []
    for name in WORKLOADS:
        untraced = harness.run_workload(name, SMOKE_SEED, SMOKE_SECONDS, 0, "tiny")
        traced = [harness.run_workload(name, SMOKE_SEED, SMOKE_SECONDS, 1, "tiny") for _ in range(2)]
        for mode, result in [("untraced", untraced)] + [("traced", r) for r in traced]:
            if not result["correct"]:
                problems.append(f"{name} {mode}: {result['failed']} of {result['attempted']} failed")
        for metric in harness.COUNT_METRICS:
            values = [r["metrics"].get(metric, {}).get("value") for r in traced]
            if values[0] != values[1]:
                problems.append(f"{name}: counter {metric} differs between runs: {values}")
        for kind, result in (("end_to_end", untraced), ("per_layer", traced[0])):
            declared = _declared(kind)
            if declared is not None and declared != set(result["metrics"]):
                problems.append(
                    f"{name}: {kind} metrics differ from BENCHMARK.json: "
                    f"{sorted(declared ^ set(result['metrics']))}"
                )
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 0 if not problems else 1
