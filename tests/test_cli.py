import json

import pytest

from fuzzyloc.cli import main, parse_label_universe
from fuzzyloc.errors import ConfigError

CORRIDOR_COLS = "b1,b2,b3,b4,b5"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path, corridor_csv):
    return tmp_path, corridor_csv


class TestParseLabelUniverse:
    def test_range_syntax(self):
        assert parse_label_universe("1..4") == (1, 2, 3, 4)
        assert parse_label_universe("-2..1") == (-2, -1, 0, 1)

    def test_list_syntax(self):
        assert parse_label_universe("3,1,8") == (3, 1, 8)

    def test_garbage_is_a_config_error(self):
        for bad in ["1..", "a,b", "4..2", ""]:
            with pytest.raises(ConfigError):
                parse_label_universe(bad)


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "rooms.csv"
        code = run_cli(
            "synth", "--rooms", "4", "--per-room", "2", "--beacons", "3",
            "--noise-sd", "0", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert "rooms.csv" in capsys.readouterr().out
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "b1,b2,b3,room"

    def test_bad_sizes_exit_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("synth", "--rooms", "1", "--out", str(out)) == 2


class TestTrainPredictEvaluate:
    def test_full_flow(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        rb_path = tmp_path / "rb.json"
        code = run_cli(
            "train", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5",
            "--seed", "42", "--out", str(rb_path),
        )
        assert code == 0
        assert rb_path.exists()
        capsys.readouterr()

        pred_path = tmp_path / "pred.json"
        code = run_cli(
            "predict", "--rulebase", str(rb_path), "--input", corridor_csv,
            "--out", str(pred_path),
        )
        assert code == 0
        doc = json.loads(pred_path.read_text(encoding="utf-8"))
        assert len(doc["predictions"]) == 300
        assert all(1 <= p["label"] <= 10 for p in doc["predictions"])

        report_path = tmp_path / "report.json"
        code = run_cli(
            "evaluate", "--rulebase", str(rb_path), "--input", corridor_csv,
            "--label-col", "room", "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["n_test"] == 300
        assert report["config_echo"]["rulebase"] == str(rb_path)

    def test_predict_to_stdout(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        rb_path = tmp_path / "rb.json"
        run_cli(
            "train", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--out", str(rb_path),
        )
        capsys.readouterr()
        assert run_cli("predict", "--rulebase", str(rb_path), "--input", corridor_csv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["predictions"]) == 300

    def test_predictions_match_the_report_per_instance(self, workdir):
        tmp_path, corridor_csv = workdir
        out = tmp_path / "run"
        assert run_cli(
            "run", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5", "--out", str(out),
        ) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        held = tmp_path / "held.csv"
        lines = open(corridor_csv, encoding="utf-8").read().splitlines()
        room = lines[0].split(",").index("room")
        held.write_text(
            "\n".join([lines[0]] + [ln for ln in lines[1:] if ln.split(",")[room] == "5"]) + "\n",
            encoding="utf-8",
        )
        predictions = tmp_path / "predictions.json"
        assert run_cli(
            "predict", "--rulebase", str(out / "rulebase.json"), "--input", str(held),
            "--out", str(predictions),
        ) == 0
        listed = json.loads(predictions.read_text(encoding="utf-8"))["predictions"]
        per_instance = report["per_instance"]
        assert [list(p) for p in listed] == [["gamma", "label", "total_firing", "fallback_used"]] * 30
        assert listed == [{k: v for k, v in p.items() if k != "truth"} for p in per_instance]

    def test_missing_rulebase_exits_2(self, workdir):
        tmp_path, corridor_csv = workdir
        assert run_cli("predict", "--rulebase", "nope.json", "--input", corridor_csv) == 2

    def test_corrupt_rulebase_exits_3(self, workdir):
        tmp_path, corridor_csv = workdir
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_cli("predict", "--rulebase", str(bad), "--input", corridor_csv) == 3


class TestRunCommand:
    def test_writes_all_artifacts(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        out = tmp_path / "exp"
        code = run_cli(
            "run", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5",
            "--seed", "42", "--out", str(out),
        )
        assert code == 0
        assert (out / "rulebase.json").exists()
        assert (out / "report.json").exists()
        assert (out / "confusion.txt").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_label_universe_flag_reaches_the_report(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        out = tmp_path / "exp"
        code = run_cli(
            "run", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5",
            "--label-universe", "1..12", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["label_universe"] == list(range(1, 13))

    def test_missing_unseen_exits_2(self, workdir):
        tmp_path, corridor_csv = workdir
        code = run_cli(
            "run", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--out", str(tmp_path / "exp"),
        )
        assert code == 2

    def test_wrong_label_column_exits_2(self, workdir):
        tmp_path, corridor_csv = workdir
        code = run_cli(
            "run", "--input", corridor_csv, "--label-col", "floor",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5",
            "--out", str(tmp_path / "exp"),
        )
        assert code == 2

    def test_unparseable_rows_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("b1,room\n1,1\nzap,2\n2,3\n", encoding="utf-8")
        code = run_cli(
            "run", "--input", str(bad), "--label-col", "room",
            "--feature-cols", "b1", "--unseen", "2", "--out", str(tmp_path / "exp"),
        )
        assert code == 3


class TestRankFeaturesCommand:
    def test_report_lists_features_by_rank(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        code = run_cli(
            "rank-features", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--cfs-top-n", "2",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        ranks = [f["rank"] for f in doc["features"]]
        assert ranks == [1, 2, 3, 4, 5]
        assert sum(f["selected"] for f in doc["features"]) == 2
        scores = [f["score"] for f in doc["features"]]
        assert scores == sorted(scores, reverse=True)

    def test_defaults_to_ranking_all_features(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        code = run_cli(
            "rank-features", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS,
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(f["selected"] for f in doc["features"])
