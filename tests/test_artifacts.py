"""tools/artifacts.py writes every benchmark workload's artifacts, the CLI
train and run of each training config write what its library run wrote, two
runs of the same checkout write byte-identical trees, every kept file is
UTF-8 text with "\\n" line ends, and every predictions, rule-base, report
and evaluation document in them is json.dumps(doc, indent=2) + "\\n"."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
WORKLOADS = ("building-40", "building-global", "corridor-sweep", "predict-stream")


def tree(root):
    """{path relative to root: bytes} of every file below root."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def write_artifacts(outdir, cwd):
    # the runs start from different directories; the echoed paths must not show it
    subprocess.run(
        [sys.executable, str(TOOL), str(outdir), "--size", "tiny", "--seeds", "1"],
        cwd=cwd, capture_output=True, check=True,
    )
    return tree(outdir)


def test_two_runs_write_identical_trees(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b" / "deeper").mkdir(parents=True)
    first = write_artifacts(tmp_path / "out-a", tmp_path / "a")
    second = write_artifacts(tmp_path / "out-b", tmp_path / "b" / "deeper")
    assert first == second
    assert {path.parts[0] for path in first} == set(WORKLOADS)
    names = {path.name for path in first}
    assert names == {
        "rulebase.json", "report.json", "confusion.txt", "predictions.json", "evaluation.json",
        "ranking.json",
    }
    # every serving target keeps what predict, evaluate and rank-features wrote
    served = {"predictions.json", "evaluation.json", "ranking.json"}
    library = {p.parent for p in first if "cli" not in p.parts}
    for folder in library:
        assert served <= {p.name for p in first if p.parent == folder}, folder
    # each training config, given to train and run as flags, wrote what its library run wrote
    runs = {p.parent for p in first if p.parent.name == "run"}
    reports = {p.parent for p in first if p.name == "report.json"}
    assert {run.parent.parent for run in runs} == reports - runs
    assert len(runs) == 3 + 1 + 4  # corridor rooms, building-40, building-global variants
    for run in runs:
        api = run.parent.parent
        assert first[run.parent / "train" / "rulebase.json"] == first[api / "rulebase.json"]
        for name in ("rulebase.json", "report.json", "confusion.txt"):
            assert first[run / name] == first[api / name], run / name
    for path, data in first.items():
        assert b"\r" not in data, path
        data.decode("utf-8")
    # building-global keeps each of its four input variants
    assert {p.parts[2] for p in first if p.parts[0] == "building-global"} == {"v0", "v1", "v2", "v3"}
    # the template-written documents are the stdlib's form of what they hold
    written = [p for p in first if p.name in ("predictions.json", "rulebase.json")]
    assert len(written) == 2 * len(library) + 2 * len(runs)
    # so is every report, whether run or evaluate wrote it
    evaluated = [p for p in first if p.name in ("report.json", "evaluation.json")]
    assert len(evaluated) == len(reports) + len(library)
    for path in written + evaluated:
        text = first[path].decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


def test_a_non_empty_outdir_is_a_usage_error(tmp_path):
    (tmp_path / "stale.json").write_text("{}", encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True)
    assert done.returncode == 2 and "is not empty" in done.stderr
