import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzyloc import cli
from fuzzyloc.cli import _parse_labels, build_parser, main, parse_label_universe
from fuzzyloc.data import Dataset, parse_label
from fuzzyloc.errors import ConfigError, DataError
from fuzzyloc.fuzzy import SimilarityParams
from fuzzyloc.pipeline import ExperimentConfig, train_rulebase
from fuzzyloc.rulebase import load_rulebase, save_rulebase
from fuzzyloc.synth import generate_synthetic, write_csv

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
        # each end is read as a CSV label cell is
        assert parse_label_universe("c1..C4") == (1, 2, 3, 4)

    def test_list_syntax(self):
        assert parse_label_universe("3,1,8") == (3, 1, 8)
        assert parse_label_universe("c3, 1,C8") == (3, 1, 8)

    def test_garbage_is_a_config_error(self):
        for bad in ["1..", "a,b", "4..2", "", "1..1025", "1..99999999999999999999"]:
            with pytest.raises(ConfigError):
                parse_label_universe(bad)

    @pytest.mark.parametrize("bad, item", [
        ("1_0", "1_0"), ("1..1_0", "1_0"), ("c1_0..c12", "c1_0"), ("1,2_0", "2_0"), ("1.5,2", "1.5"),
    ])
    def test_an_item_a_csv_label_cannot_be_is_named(self, bad, item):
        with pytest.raises(ConfigError, match=f"^--label-universe: label '{item}' is neither"):
            parse_label_universe(bad)

    def test_a_range_is_bounded_but_a_list_is_not(self):
        assert parse_label_universe("1..1024") == tuple(range(1, 1025))
        listed = ",".join(map(str, range(1, 2001)))
        assert parse_label_universe(listed) == tuple(range(1, 2001))


DIGITS = "0123456789"
BEYOND = "99999999999999999999"  # 20 digits, past 2**63
PAST = str(2**52 + 1)  # the first label past the label range
OUTSIDE = "lies outside -4503599627370496..4503599627370496"


@st.composite
def label_texts(draw):
    """A label as a CSV cell or a flag item may hold it: optional
    surrounding whitespace, a plain (optionally signed) or c/C-prefixed
    form, and 1 to 5,000 digits."""
    digits = draw(st.one_of(
        st.integers(0, 2**64).map(str),  # around the 64-bit bounds
        st.integers(2**52 - 2, 2**52 + 2).map(str),  # around the label range's ends
        st.builds(
            lambda head, fill, n: (head + fill * n)[:5000],
            st.text(DIGITS, min_size=1, max_size=20), st.sampled_from(DIGITS), st.integers(0, 5000),
        ),
    ))
    pad = st.sampled_from(["", " ", "\t", " \t "])
    form = draw(st.sampled_from(["", "+", "-", "c", "C", "c-", "C-"]))
    return draw(pad) + form + digits + draw(pad)


def range_value(text):
    """The integer a well-formed label text names, or None outside
    -2**52..2**52."""
    number = text.strip().lstrip("cC")
    digits = number.lstrip("+-")
    if len(digits.lstrip("0")) > 19:
        return None
    # leading zeros add nothing, and past 4,300 digits int() refuses them
    digits = digits.lstrip("0") or "0"
    value = -int(digits) if number.startswith("-") else int(digits)
    return value if -(2**52) <= value <= 2**52 else None


class TestLabelParity:
    @settings(max_examples=300, deadline=None)
    @given(text=label_texts())
    @example(text="0" * 4301).via("more zeros than int() reads")
    @example(text="c-" + "0" * 4999 + "7").via("more zeros than int() reads")
    def test_a_csv_cell_and_a_flag_item_read_alike(self, text):
        value = range_value(text)
        if value is not None:
            assert parse_label(text)[0] == value
            assert _parse_labels(text, "--unseen") == (value,)
            return
        refusal = f"label {text.strip()!r} {OUTSIDE}"
        with pytest.raises(DataError) as cell:
            parse_label(text)
        with pytest.raises(ConfigError) as item:
            _parse_labels(text, "--unseen")
        assert str(cell.value) == refusal
        assert (type(item.value), str(item.value)) == (ConfigError, f"--unseen: {refusal}")

    @pytest.mark.parametrize("flags, bad_cell, named", [
        (["--unseen", BEYOND], False, f"config error: --unseen: label '{BEYOND}'"),
        (["--unseen", PAST], False, f"config error: --unseen: label '{PAST}'"),
        (["--unseen", f"-{PAST}"], False, f"config error: --unseen: label '-{PAST}'"),
        (["--unseen", "9" * 5000], False, f"config error: --unseen: label '{'9' * 5000}'"),
        (["--unseen", "5", "--label-universe", f"1..{BEYOND}"], False,
         f"config error: --label-universe: label '{BEYOND}'"),
        (["--unseen", "5", "--label-universe", f"1,5,{BEYOND}"], False,
         f"config error: --label-universe: label '{BEYOND}'"),
        (["--unseen", "5"], True, f"data error: load: {{csv}}: row 2: label '{BEYOND}'"),
    ])
    def test_a_label_outside_the_range_is_refused_where_it_is_read(
        self, workdir, capsys, flags, bad_cell, named
    ):
        tmp_path, csv_path = workdir
        if bad_cell:
            lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
            lines[1] = f"{lines[1].rpartition(',')[0]},{BEYOND}"
            csv_path = tmp_path / "beyond.csv"
            csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["--input", csv_path, "--label-col", "room", "--feature-cols", CORRIDOR_COLS]
        code = run_cli("run", *map(str, argv), *flags, "--out", str(tmp_path / "exp"))
        assert code == (3 if bad_cell else 2)
        named = named.format(csv=csv_path)
        assert capsys.readouterr().err == f"fuzzyloc: {named} {OUTSIDE}\n"
        assert not (tmp_path / "exp").exists()


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

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--seed", "-1", "seed"),
            ("--noise-sd", "nan", "noise_sd"),
            ("--noise-sd", "inf", "noise_sd"),
            # finite noise whose draws overflow to inf
            ("--noise-sd", "1e+308", "makes readings non-finite"),
            # tables refused before anything is allocated (74.5 GiB and more)
            ("--rooms", "10000000000", "rooms x 30 rows x 5 beacons exceed 10000000 cells"),
            ("--per-room", "100000000000", "rows x 5 beacons exceed 10000000 cells"),
            ("--beacons", "100000000000", "beacons exceed 10000000 cells"),
        ],
    )
    def test_values_it_cannot_generate_from_exit_2(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "x.csv"
        assert run_cli("synth", flag, value, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert named in err and value in err and "Traceback" not in err
        assert not out.exists()


class TestLabelFlags:
    @pytest.mark.parametrize("flags, unseen, universe", [
        (["--unseen", "c3"], [3], None),
        (["--unseen", "C3,c7"], [3, 7], None),
        (["--unseen", "5", "--label-universe", "c1..c10"], [5], list(range(1, 11))),
        # both ends of the label range
        (["--unseen", "5", "--label-universe", f"c-{2**52},1,2,3,4,5,6,7,8,9,10,{2**52}"], [5],
         [-(2**52), *range(1, 11), 2**52]),
    ])
    def test_labels_read_as_csv_label_cells(self, workdir, flags, unseen, universe):
        tmp_path, corridor_csv = workdir
        out = tmp_path / "exp"
        argv = ["--input", corridor_csv, "--label-col", "room", "--feature-cols", CORRIDOR_COLS]
        assert run_cli("run", *argv, *flags, "--out", str(out)) == 0
        echo = json.loads((out / "report.json").read_text(encoding="utf-8"))["config_echo"]
        assert (echo["unseen_labels"], echo["label_universe"]) == (unseen, universe)

    @pytest.mark.parametrize("flags, named", [
        (["--unseen", "1_0"], "--unseen: label '1_0'"),
        (["--unseen", "3,c1_0"], "--unseen: label 'c1_0'"),
        (["--unseen", "3.0"], "--unseen: label '3.0'"),
        (["--unseen", "9" * 5000], OUTSIDE),
        (["--unseen", PAST], f"--unseen: label '{PAST}' {OUTSIDE}"),
        (["--unseen", "5", "--label-universe", f"1,5,-{PAST}"], f"--label-universe: label '-{PAST}' {OUTSIDE}"),
        (["--unseen", "5", "--label-universe", "1..1_0"], "--label-universe: label '1_0'"),
        # int() reads Arabic-Indic and fullwidth digits; no CSV label holds them
        (["--unseen", "\u0663"], "--unseen: label '\u0663'"),
        (["--unseen", "3,c\u0661\u0662"], "--unseen: label 'c\u0661\u0662'"),
        (["--unseen", "5", "--label-universe", "1..\uff15"], "--label-universe: label '\uff15'"),
    ])
    def test_items_a_csv_label_cannot_be_exit_2(self, workdir, capsys, flags, named):
        tmp_path, corridor_csv = workdir
        argv = ["--input", corridor_csv, "--label-col", "room", "--feature-cols", CORRIDOR_COLS]
        assert run_cli("run", *argv, *flags, "--out", str(tmp_path / "exp")) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "exp").exists()


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

    def test_evaluate_scores_every_class_from_its_instances(self, workdir, capsys):
        tmp_path, corridor_csv = workdir
        rb_path = tmp_path / "rb.json"
        assert run_cli(
            "train", "--input", corridor_csv, "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5", "--seed", "42", "--out", str(rb_path),
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--rulebase", str(rb_path), "--input", corridor_csv, "--label-col", "room"
        ) == 0
        report = json.loads(capsys.readouterr().out)
        recount = {}
        for row in report["per_instance"]:
            counts = recount.setdefault(row["truth"], {"n_instances": 0, "n_correct": 0})
            counts["n_instances"] += 1
            counts["n_correct"] += row["label"] == row["truth"]
        assert list(report["per_class"]) == [str(label) for label in range(1, 11)]
        assert report["per_class"] == {
            str(label): {**c, "accuracy_percent": 100.0 * c["n_correct"] / c["n_instances"]}
            for label, c in sorted(recount.items())
        }
        assert report["n_correct"] == sum(c["n_correct"] for c in recount.values())
        for k in (1, 2):
            hits = sum(abs(r["label"] - r["truth"]) <= k for r in report["per_instance"])
            assert report[f"within_{k}_percent"] == 100.0 * hits / 300

    def test_missing_rulebase_exits_2(self, workdir):
        tmp_path, corridor_csv = workdir
        assert run_cli("predict", "--rulebase", "nope.json", "--input", corridor_csv) == 2

    def test_corrupt_rulebase_exits_3(self, workdir):
        tmp_path, corridor_csv = workdir
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_cli("predict", "--rulebase", str(bad), "--input", corridor_csv) == 3


class TestParserReuse:
    """main builds its parser once per process, and every call through the
    reused parser gives what a freshly built one gives."""

    @staticmethod
    def outcome(argv, out_dir, capsys):
        """(exit code, stdout, stderr, {name: bytes} of out_dir) after one main call."""
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a flag error
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_a_reused_parser_gives_what_a_fresh_one_gives(
        self, tmp_path, corridor_csv, corridor_config, capsys, monkeypatch
    ):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_rulebase(train_rulebase(corridor_config).rule_base, first)
        config = dataclasses.replace(corridor_config, unseen_labels=(3,), seed=7)
        save_rulebase(train_rulebase(config).rule_base, second)
        out_dir = tmp_path / "out"
        other = out_dir / "other.csv"
        calls = [
            ["predict", "--rulebase", str(first), "--input", corridor_csv,
             "--out", str(out_dir / "predictions.json")],
            ["synth", "--rooms", "four", "--out", str(other)],
            ["synth", "--rooms", "4", "--per-room", "6", "--seed", "3", "--out", str(other)],
            ["predict", "--rulebase", str(second), "--input", str(other)],
        ]
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda real=build_parser: built.append(1) or real())

        def run_all(fresh):
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            cli._parser.cache_clear()
            outcomes = []
            for argv in calls:
                if fresh:
                    cli._parser.cache_clear()
                outcomes.append(self.outcome(argv, out_dir, capsys))
            return outcomes

        fresh = run_all(fresh=True)
        assert len(built) == len(calls)
        reused = run_all(fresh=False)
        assert len(built) == len(calls) + 1
        cli._parser.cache_clear()
        assert reused == fresh
        assert [code for code, *_ in reused] == [0, 2, 0, 0]
        assert "argument --rooms: invalid int value: 'four'" in reused[1][2]
        assert json.loads(reused[3][1])["input"] == str(other)


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

    def test_integer_readings_train(self, tmp_path, capsys):
        # RSSI logs hold integer dBm, so a beacon often reads one value
        # across a cluster, whose mean may round an ulp past that value
        data = generate_synthetic(10, 30, 5, 0.5, seed=0)
        path = tmp_path / "rounded.csv"
        write_csv(Dataset(np.round(data.features), data.labels, data.feature_names), path)
        out = tmp_path / "exp"
        code = run_cli(
            "run", "--input", str(path), "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5", "--out", str(out),
        )
        assert code == 0, capsys.readouterr().err
        a1, a2, a3 = np.moveaxis(load_rulebase(out / "rulebase.json").antecedents, -1, 0)
        assert ((a1 <= a2) & (a2 <= a3)).all() and (a2[a1 == a3] == a1[a1 == a3]).all()

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

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--unseen", "5", "--label-universe", "1..10000000000"], "1..10000000000"),
            (["--unseen", "4503599627370496"], "1..4503599627370496"),
            (["--unseen", "1025"], "1..1025"),
        ],
    )
    def test_a_label_range_beyond_the_bound_exits_2(self, workdir, capsys, flags, named):
        tmp_path, corridor_csv = workdir
        argv = ["--input", corridor_csv, "--label-col", "room", "--feature-cols", CORRIDOR_COLS]
        code = run_cli("run", *argv, *flags, "--out", str(tmp_path / "exp"))
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "more than 1024" in err and "Traceback" not in err

    def test_a_derived_span_beyond_the_bound_points_to_the_flag(self, tmp_path, capsys):
        csv_path = tmp_path / "sparse.csv"
        rows = [f"{i % 7}.0,{i % 3}.0,{label}" for i, label in enumerate([1, 2, 1500] * 5)]
        csv_path.write_text("b1,b2,room\n" + "\n".join(rows) + "\n", encoding="utf-8")
        argv = ["--input", str(csv_path), "--label-col", "room", "--feature-cols", "b1,b2"]
        assert run_cli("run", *argv, "--unseen", "2", "--out", str(tmp_path / "exp")) == 2
        err = capsys.readouterr().err
        assert "1..1500" in err and "--label-universe" in err
        assert not (tmp_path / "exp").exists()

    def test_a_span_within_the_bound_trains(self, workdir):
        # the corridor with room 10 relabelled 1000: a derived universe of 1,000 labels
        tmp_path, corridor_csv = workdir
        text = open(corridor_csv, encoding="utf-8").read()
        relabelled = tmp_path / "relabelled.csv"
        relabelled.write_text(text.replace(",10\n", ",1000\n"), encoding="utf-8")
        rb_path = tmp_path / "rb.json"
        code = run_cli(
            "train", "--input", str(relabelled), "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5", "--out", str(rb_path),
        )
        assert code == 0
        assert json.loads(rb_path.read_text(encoding="utf-8"))["label_universe"] == list(range(1, 1001))

    def test_an_unordered_universe_fails_before_any_input_is_read(self, tmp_path, capsys):
        # the input does not exist: a check made after reading it would say so instead
        code = run_cli(
            "run", "--input", str(tmp_path / "absent.csv"), "--label-col", "room",
            "--feature-cols", CORRIDOR_COLS, "--unseen", "5",
            "--label-universe", "10,1,2,3,4,5,6,7,8,9", "--out", str(tmp_path / "exp"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "strictly increasing" in err and "absent.csv" not in err

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


class TestNumberFlags:
    @pytest.mark.parametrize("command, flag, kind", [
        ("run", "--seed", "int"),
        ("run", "--k-max", "int"),
        ("run", "--cfs-top-n", "int"),
        ("run", "--h", "float"),
        ("run", "--omega", "float"),
        ("run", "--cfs-epsilon", "float"),
        ("synth", "--rooms", "int"),
        ("synth", "--per-room", "int"),
        ("synth", "--beacons", "int"),
        ("synth", "--noise-sd", "float"),
        ("synth", "--seed", "int"),
    ])
    @pytest.mark.parametrize("text", ["1_0", "\uff15", "\u0664\u0662"])
    def test_numbers_a_csv_cell_cannot_hold_exit_2(self, tmp_path, capsys, command, flag, kind, text):
        # int() and float() read PEP 515 separators and non-ASCII digits, as
        # they would in a CSV cell; a flag refuses them just as the reader does
        out = tmp_path / "out"
        argv = [command, flag, text, "--out", str(out)]
        if command == "run":
            argv += ["--input", "x.csv", "--feature-cols", "b1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid {kind} value: {text!r}" in capsys.readouterr().err
        assert not out.exists()
        argv[2] = "10"
        assert getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_")) == 10


class TestFlagOwnership:
    def test_rank_features_documents_the_selection_flags(self, capsys):
        for command in ("rank-features", "train", "run"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0
            listing = " ".join(capsys.readouterr().out.split())
            for text in (
                "--cfs-top-n CFS_TOP_N keep the n best-ranked features",
                "--cfs-epsilon CFS_EPSILON keep features scoring above this",
                "--cfs-sort score features on value-sorted panels instead of dataset order",
            ):
                assert text in listing, command

    def test_model_flag_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(
            ["run", "--input", "x.csv", "--feature-cols", "b1", "--out", "o"]
        )
        config = ExperimentConfig(input_path="x.csv", label_column="label", feature_columns=("b1",))
        assert (args.h, args.omega) == (config.h, config.omega) == (5.0, 5.0)
        assert (SimilarityParams().h, SimilarityParams().omega) == (5.0, 5.0)
        assert (args.strategy, args.k_max, args.seed) == (
            config.strategy, config.k_max, config.seed
        )

    # ExperimentConfig fields that _config_from_args reads or renames by hand
    BY_HAND = {"input_path", "label_column", "feature_columns", "unseen_labels",
               "label_universe", "output_dir"}

    def test_every_config_field_is_a_run_dest_or_built_by_hand(self):
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        for command in ("train", "run"):
            dests = {action.dest for action in commands.choices[command]._actions}
            assert {name for name in fields if name not in dests} <= self.BY_HAND, command
            # the options that pass straight through, by their shared name
            assert (fields & dests) - self.BY_HAND == {
                "cfs_top_n", "cfs_epsilon", "cfs_sort", "h", "omega", "strategy", "k_max", "seed"
            }

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("cfs_flags, cfs", [
        (["--cfs-top-n", "1", "--cfs-sort"], {"cfs_top_n": 1, "cfs_sort": True}),
        (["--cfs-epsilon", "0.25"], {"cfs_epsilon": 0.25}),
    ])
    def test_every_model_flag_reaches_the_config(self, monkeypatch, capsys, command, cfs_flags, cfs):
        built = []

        def capture(config):
            built.append(config)
            raise ConfigError("captured")

        monkeypatch.setattr(cli, {"train": "train_rulebase", "run": "run_experiment"}[command], capture)
        argv = [
            command, "--input", "x.csv", "--label-col", "room", "--feature-cols", "b1, b2",
            "--unseen", "c5,7", *cfs_flags, "--h", "2.5", "--omega=-1.5", "--strategy", "global-mean",
            "--k-max", "3", "--seed", "9", "--label-universe", "1..12", "--out", "o",
        ]
        assert main(argv) == 2 and "captured" in capsys.readouterr().err
        want = ExperimentConfig(
            input_path="x.csv", label_column="room", feature_columns=("b1", "b2"),
            unseen_labels=(5, 7), h=2.5, omega=-1.5, strategy="global-mean", k_max=3, seed=9,
            label_universe=tuple(range(1, 13)), output_dir="o" if command == "run" else None, **cfs,
        )
        assert built == [want]
        # every flag given differs from its default, so none reached the config by default
        defaults = ExperimentConfig(input_path="", label_column="", feature_columns=("b1",))
        moved = {field.name for field in dataclasses.fields(ExperimentConfig)
                 if getattr(want, field.name) != getattr(defaults, field.name)}
        assert {"h", "omega", "strategy", "k_max", "seed", "unseen_labels", *cfs} <= moved


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


def _full_flag_argv(sub):
    """argv that gives every optional flag of a subparser in full, with a
    value its type reads."""
    argv = []
    for action in sub._actions:
        flags = [f for f in action.option_strings if f.startswith("--") and f != "--help"]
        if not flags:
            continue
        argv.append(flags[0])
        if action.nargs != 0:
            argv.append(action.choices[0] if action.choices else "1")
    return argv


class TestAbbreviatedFlags:
    """A prefix of a flag is refused, not taken for the flag it abbreviates."""

    def test_an_abbreviated_help_exits_2_and_writes_nothing(self, workdir, capsys):
        tmp, csv = workdir
        rb_path, out = tmp / "rb.json", tmp / "p.json"
        train = ["train", "--input", csv, "--label-col", "room", "--feature-cols", CORRIDOR_COLS]
        assert run_cli(*train, "--out", str(rb_path)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("predict", "--rulebase", str(rb_path), "--input", csv, "--out", str(out), "--h")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --h" in captured.err
        assert not out.exists()

    def test_an_abbreviated_option_exits_2(self, workdir, capsys):
        tmp, csv = workdir
        out = tmp / "rb.json"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("train", "--input", csv, "--label-col", "room", "--feature-cols", CORRIDOR_COLS,
                    "--out", str(out), "--unsee", "5")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --unsee 5" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("synth", "--room", "4", "--out", str(tmp / "s.csv"))
        assert exit_info.value.code == 2

    def test_every_full_flag_still_parses(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        assert sorted(commands.choices) == [
            "evaluate", "predict", "rank-features", "run", "synth", "train"
        ]
        for name, sub in commands.choices.items():
            argv = _full_flag_argv(sub)
            args = parser.parse_args([name] + argv)
            given = {a.dest for a in sub._actions if set(a.option_strings) & set(argv)}
            assert given == set(vars(args)) - {"command"}, name
