"""Malformed outside input through the CLI ends in exit 2 or 3, never 4.

The fuzzers start from a valid CSV export and a valid rule base and
mutate them, byte by byte or value by value; whatever `fuzzyloc` makes of
the result, the exit code is 0, 2 or 3, and every JSON file it writes
parses without NaN or Infinity. The probes pin one known malformed input
each, with the path, row or field its message must name.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc.cli import main

COLS = "b1,b2,b3"
LABELED = ["--label-col", "room"]
# `run` derives its label universe from the mutated labels: a label such
# as 10**15 makes that range too wide, which is refused (exit 2) before
# it is expanded
RUN_FLAGS = ["--feature-cols", COLS, "--unseen", "3"]

BAD_NUMBERS = [
    10**400, -(10**400), 2**63, -(2**63) - 1, 2**52 + 1, -(2**52) - 1, 10**15, -1, 0,
    float("nan"), float("inf"), float("-inf"), 1.7e308, -1.7e308, 5e-324,
]
BAD_VALUES = BAD_NUMBERS + [
    True, False, None, "5", "", [], {}, [1.0, 2.0, 3.0], [[0.5]], {"h": 5.0},
]
BAD_CELLS = [
    "9" * 25, "-" + "9" * 400, "4503599627370497", "-4503599627370497", "NaN", "nan", "inf", "-Infinity", "1e308", "-1e308",
    "1e400", "5e-324", "true", "abc", "", '"', "c5", "C-3", " 3 ", "0x10", "-0",
]
BAD_BYTES = [b"\xff", b"\xc3", b"\x00", b"\xef\xbb\xbf", b"\r", b",", b'"', b"\n", b"\n\n"]
# the bytes of a plainly numeric CSV body, which numpy's parser reads
NUMERIC_BYTES = st.text("0123456789.eE+-,\n", min_size=1, max_size=4).map(str.encode)


def _refuse(constant):
    raise AssertionError(f"output holds {constant}")


def strict_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_refuse)


def run_checked(argv, outputs=()):
    """Run the CLI; a 0 exit must leave strict-JSON outputs behind."""
    code = main([str(a) for a in argv])
    assert code in (0, 2, 3)
    if code == 0:
        for path in outputs:
            strict_json(path)
    return code


def predict(rb_path, csv_path):
    return ["predict", "--rulebase", rb_path, "--input", csv_path]


def evaluate(rb_path, csv_path):
    return ["evaluate", "--rulebase", rb_path, "--input", csv_path, *LABELED]


def rank(csv_path):
    return ["rank-features", "--input", csv_path, *LABELED, "--feature-cols", COLS]


def run(csv_path, out):
    return ["run", "--input", csv_path, *LABELED, *RUN_FLAGS, "--out", out]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A small labeled corridor CSV and a rule base trained on it."""
    root = tmp_path_factory.mktemp("robust")
    csv_path = root / "rooms.csv"
    assert main([
        "synth", "--rooms", "6", "--per-room", "8", "--beacons", "3",
        "--seed", "3", "--out", str(csv_path),
    ]) == 0
    rb_path = root / "rulebase.json"
    assert main([
        "train", "--input", str(csv_path), *LABELED, "--feature-cols", COLS,
        "--out", str(rb_path),
    ]) == 0
    return root, csv_path, rb_path


def mutate_bytes(data, blob, chunks=st.sampled_from(BAD_BYTES) | st.binary(max_size=4)):
    """Insert, overwrite or cut a few bytes of blob, inserting chunks."""
    for _ in range(data.draw(st.integers(1, 3), label="byte edits")):
        at = data.draw(st.integers(0, len(blob)), label="at")
        kind = data.draw(st.sampled_from(["insert", "overwrite", "cut"]), label="kind")
        if kind == "cut":
            blob = blob[:at] + blob[at + data.draw(st.integers(1, 40), label="cut"):]
            continue
        chunk = data.draw(chunks, label="bytes")
        blob = blob[:at] + chunk + blob[at + (len(chunk) if kind == "overwrite" else 0):]
    return blob


def mutate_cells(data, text):
    """Replace a few CSV cells, header included, with awkward tokens."""
    rows = [line.split(",") for line in text.split("\n")]
    for _ in range(data.draw(st.integers(1, 3), label="cell edits")):
        row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
        col = data.draw(st.integers(0, len(row) - 1), label="col")
        row[col] = data.draw(st.sampled_from(BAD_CELLS) | st.text(max_size=6), label="cell")
    return "\n".join(",".join(row) for row in rows)


def mutate_value(data, doc):
    """Replace, delete or re-nest one value somewhere in a JSON document."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans(), label="descend"):
            node = child
            continue
        break
    kind = data.draw(st.sampled_from(["replace", "delete", "nest"]), label="kind")
    if kind == "delete":
        del node[key]
    elif kind == "nest":
        node[key] = [child]
    else:
        node[key] = data.draw(
            st.sampled_from(BAD_VALUES) | st.integers() | st.floats() | st.text(max_size=4),
            label="value",
        )
    return doc


class TestFuzzing:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_csv_exits_0_2_or_3(self, base, data):
        root, csv_path, rb_path = base
        if data.draw(st.booleans(), label="byte level"):
            blob = mutate_bytes(data, csv_path.read_bytes())
        else:
            blob = mutate_cells(data, csv_path.read_text(encoding="utf-8")).encode("utf-8")
        self.check_every_command(root, rb_path, blob)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_numeric_body_exits_0_2_or_3(self, base, data):
        # the synth export is plainly numeric below its header, and stays so
        root, csv_path, rb_path = base
        header, body = csv_path.read_bytes().split(b"\n", 1)
        body = mutate_bytes(data, body, NUMERIC_BYTES)
        self.check_every_command(root, rb_path, header + b"\n" + body)

    @staticmethod
    def check_every_command(root, rb_path, blob):
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            tmp = Path(tmp)
            bad = tmp / "bad.csv"
            bad.write_bytes(blob)
            out = tmp / "out.json"
            run_checked(rank(bad) + ["--out", out], [out])
            run_checked(predict(rb_path, bad) + ["--out", out], [out])
            run_checked(evaluate(rb_path, bad) + ["--out", out], [out])
            exp = tmp / "exp"
            run_checked(run(bad, exp), [exp / "rulebase.json", exp / "report.json"])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_rulebase_exits_0_2_or_3(self, base, data):
        root, csv_path, rb_path = base
        doc = mutate_value(data, json.loads(rb_path.read_text(encoding="utf-8")))
        blob = json.dumps(doc, indent=2).encode("utf-8")
        if data.draw(st.booleans(), label="byte level"):
            blob = mutate_bytes(data, blob)
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            tmp = Path(tmp)
            bad = tmp / "bad.json"
            bad.write_bytes(blob)
            out = tmp / "out.json"
            run_checked(predict(bad, csv_path) + ["--out", out], [out])
            run_checked(evaluate(bad, csv_path) + ["--out", out], [out])


def edit_rulebase(rb_path, tmp_path, edit, raw=None):
    """A copy of the rule base with edit applied to its document; raw
    replaces the text of a "@" placeholder value (for NaN and big ints)."""
    doc = json.loads(rb_path.read_text(encoding="utf-8"))
    edit(doc)
    text = json.dumps(doc, indent=2)
    if raw is not None:
        text = text.replace('"@"', raw)
    path = tmp_path / "edited.json"
    path.write_text(text, encoding="utf-8")
    return path


def edit_csv(csv_path, tmp_path, edits):
    """A copy of the CSV with {(row, column name): cell} applied (header = row 1)."""
    rows = [line.split(",") for line in csv_path.read_text(encoding="utf-8").splitlines()]
    for (row, name), cell in edits.items():
        rows[row - 1][rows[0].index(name)] = cell
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    return path


def assert_exit(argv, code, capsys, *named):
    assert main([str(a) for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for text in named:
        assert str(text) in err


BIG = "9" * 400
OUTSIDE = "lies outside -4503599627370496..4503599627370496"


class TestProbes:
    """Inputs that once ended in exit 4 or in NaN output, one each."""

    def test_predict_output_in_a_missing_directory_exits_2(self, base, tmp_path, capsys):
        _, csv_path, rb_path = base
        out = tmp_path / "missing" / "predictions.json"
        assert_exit(predict(rb_path, csv_path) + ["--out", out], 2, capsys, out)

    def test_train_output_in_a_missing_directory_exits_2(self, base, tmp_path, capsys):
        _, csv_path, _ = base
        out = tmp_path / "missing" / "rulebase.json"
        argv = ["train", "--input", csv_path, *LABELED, "--feature-cols", COLS, "--out", out]
        assert_exit(argv, 2, capsys, out)

    def test_run_output_below_a_file_exits_2(self, base, tmp_path, capsys):
        _, csv_path, _ = base
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "exp"
        assert_exit(run(csv_path, out), 2, capsys, out)

    def test_rulebase_with_byte_ff_exits_3(self, base, tmp_path, capsys):
        _, csv_path, rb_path = base
        bad = tmp_path / "bad.json"
        bad.write_bytes(rb_path.read_bytes().replace(b'"seed"', b'"se\xffed"'))
        assert_exit(predict(bad, csv_path), 3, capsys, bad, "UTF-8")

    @pytest.mark.parametrize("command", ["rank-features", "predict", "run"])
    def test_csv_with_byte_ff_exits_3(self, base, tmp_path, capsys, command):
        _, csv_path, rb_path = base
        bad = tmp_path / "bad.csv"
        bad.write_bytes(csv_path.read_bytes().replace(b"b2", b"b\xff2", 1))
        argv = {
            "rank-features": rank(bad),
            "predict": predict(rb_path, bad),
            "run": run(bad, tmp_path / "exp"),
        }[command]
        assert_exit(argv, 3, capsys, bad, "UTF-8")

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("similarity_params", lambda doc: doc["similarity_params"].update(h="@")),
            ("normalization[1].max", lambda doc: doc["normalization"][1].update(max="@")),
            (
                "rules[2].antecedents[1]",
                lambda doc: doc["rules"][2]["antecedents"][1].__setitem__(2, "@"),
            ),
        ],
    )
    def test_400_digit_integers_exit_3(self, base, tmp_path, capsys, field, edit):
        _, csv_path, rb_path = base
        bad = edit_rulebase(rb_path, tmp_path, edit, raw=BIG)
        assert_exit(predict(bad, csv_path), 3, capsys, field, "non-finite")
        assert_exit(evaluate(bad, csv_path), 3, capsys, field, "non-finite")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_consequent_exits_3(self, base, tmp_path, capsys, constant):
        _, csv_path, rb_path = base
        edit = lambda doc: doc["rules"][1].update(consequent="@")  # noqa: E731
        bad = edit_rulebase(rb_path, tmp_path, edit, raw=constant)
        assert_exit(predict(bad, csv_path), 3, capsys, "rules[1]", "non-finite consequent")
        assert_exit(evaluate(bad, csv_path), 3, capsys, "rules[1]", "non-finite consequent")

    @pytest.mark.parametrize(
        "raw, edit, named",
        [
            (None, lambda doc: doc["rules"][0]["antecedents"][1].__setitem__(0, True),
             "rules[0].antecedents[1]: fuzzy set vertex must be a real number, got bool"),
            (None, lambda doc: doc["rules"][0]["antecedents"][1].__setitem__(0, "0.5"),
             "rules[0].antecedents[1]: fuzzy set vertex must be a real number, got str"),
            ("NaN", lambda doc: doc["rules"][1]["antecedents"][0].__setitem__(1, "@"),
             "rules[1].antecedents[0]: non-finite fuzzy set vertex: nan"),
            ("Infinity", lambda doc: doc["rules"][1]["antecedents"][0].__setitem__(2, "@"),
             "rules[1].antecedents[0]: non-finite fuzzy set vertex: inf"),
            (None, lambda doc: doc["rules"][3]["antecedents"].__setitem__(2, [1, 0, 1]),
             "rules[3].antecedents[2]: fuzzy set vertices must satisfy a1 <= a2 <= a3, "
             "got (1, 0, 1)"),
            (None, lambda doc: doc["rules"][0]["antecedents"].__setitem__(0, [0.1, 0.2]),
             "rules[0].antecedents[0]: a triangle needs 3 values (a1, a2, a3), got 2"),
            (None, lambda doc: doc["rules"][0]["antecedents"].__setitem__(0, {"a1": 0.1}),
             "rules[0].antecedents[0] must be [a1, a2, a3]"),
            (None, lambda doc: doc["rules"][1]["antecedents"].pop(),
             "rules[1]: 2 antecedents, expected 3"),
            (None, lambda doc: doc["rules"][0].update(support_count=True),
             "rules[0]: support_count must be an integer, got bool"),
            (None, lambda doc: doc["rules"][0].update(support_count=2.0),
             "rules[0]: support_count must be an integer, got float"),
            (None, lambda doc: doc["rules"][0].update(support_count=0),
             "rules[0]: support_count must be >= 1, got 0"),
            # two faults: the one earlier in the document is named
            ("NaN", lambda doc: (
                doc["rules"][3]["antecedents"][1].__setitem__(1, "@"),
                doc["rules"][1]["antecedents"].__setitem__(0, [0.9, 0.5, 0.1]),
            ), "rules[1].antecedents[0]: fuzzy set vertices must satisfy a1 <= a2 <= a3, "
               "got (0.9, 0.5, 0.1)"),
            (None, lambda doc: (
                doc["rules"][3]["antecedents"].__setitem__(1, [0.1, 0.2]),
                doc["rules"][1]["antecedents"].__setitem__(0, [0.9, 0.5, 0.1]),
            ), "rules[1].antecedents[0]: fuzzy set vertices must satisfy a1 <= a2 <= a3, "
               "got (0.9, 0.5, 0.1)"),
            (None, lambda doc: (
                doc["rules"][5].update(support_count=2.0),
                doc["rules"][0].update(consequent=7),
            ), "rules[0]: consequent 7.0 lies outside the label universe [1, 6]"),
        ],
    )
    def test_rule_faults_exit_3_naming_field_and_reason(
        self, base, tmp_path, capsys, raw, edit, named
    ):
        # the reasons are those of the object-per-rule loader the bulk checks replaced
        _, csv_path, rb_path = base
        bad = edit_rulebase(rb_path, tmp_path, edit, raw=raw)
        assert_exit(predict(bad, csv_path), 3, capsys, named)
        assert_exit(evaluate(bad, csv_path), 3, capsys, named)

    def test_support_count_beyond_64_bits_exits_3(self, base, tmp_path, capsys):
        # supports are held as int64, so such a count is refused
        _, csv_path, rb_path = base
        edit = lambda doc: doc["rules"][4].update(support_count="@")  # noqa: E731
        bad = edit_rulebase(rb_path, tmp_path, edit, raw=BIG)
        assert_exit(
            predict(bad, csv_path), 3, capsys,
            "rules[4]: support_count must be <= 9223372036854775807, got an integer beyond 64 bits",
        )

    def test_consequent_beyond_the_label_universe_exits_3(self, base, tmp_path, capsys):
        # finite, but the weighted sums of evaluate overflowed to Infinity
        _, csv_path, rb_path = base
        edit = lambda doc: doc["rules"][0].update(consequent=1.7e308)  # noqa: E731
        bad = edit_rulebase(rb_path, tmp_path, edit)
        assert_exit(
            evaluate(bad, csv_path), 3, capsys,
            "rules[0]: consequent 1.7e+308 lies outside the label universe [1, 6]",
        )

    @pytest.mark.parametrize("at, raw, named", [
        (6, BIG, "label_universe[6] must be <= 4503599627370496, got an integer beyond 64 bits"),
        (6, str(2**52 + 1), "label_universe[6] must be <= 4503599627370496, got 4503599627370497"),
        (0, str(-(2**52) - 1), "label_universe[0] must be >= -4503599627370496, got -4503599627370497"),
    ])
    def test_label_universe_outside_the_range_exits_3(self, base, tmp_path, capsys, at, raw, named):
        _, csv_path, rb_path = base
        bad = edit_rulebase(rb_path, tmp_path, lambda doc: doc["label_universe"].insert(at, "@"), raw)
        assert_exit(predict(bad, csv_path), 3, capsys, named)

    def test_vertex_mean_beyond_the_float_range_exits_3(self, base, tmp_path, capsys):
        # with an overflowing observation it met inf - inf: NaN total_firing
        _, csv_path, rb_path = base
        edit = lambda doc: doc["rules"][1]["antecedents"].__setitem__(0, [1e308] * 3)  # noqa: E731
        bad = edit_rulebase(rb_path, tmp_path, edit)
        assert_exit(predict(bad, csv_path), 3, capsys, "rules[1]: a vertex mean is beyond the float range")

    # the config itself refuses the seed, before any clustering, whatever --k-max is
    @pytest.mark.parametrize("flags", [[], ["--k-max", "1"]])
    def test_negative_seed_exits_2(self, base, tmp_path, capsys, flags):
        _, csv_path, _ = base
        argv = run(csv_path, tmp_path / "exp") + ["--seed", "-1", *flags]
        assert_exit(argv, 2, capsys, "config error: seed must be >= 0, got -1")

    @pytest.mark.parametrize("cell", ["99999999999999999999999", str(2**52 + 1), str(-(2**52) - 1)])
    @pytest.mark.parametrize("command", ["rank-features", "run"])
    def test_label_outside_the_range_exits_3(self, base, tmp_path, capsys, command, cell):
        _, csv_path, _ = base
        bad = edit_csv(csv_path, tmp_path, {(4, "room"): cell})
        argv = rank(bad) if command == "rank-features" else run(bad, tmp_path / "exp")
        assert_exit(argv, 3, capsys, bad, "row 4", OUTSIDE)

    @pytest.mark.parametrize("command", ["rank-features", "run"])
    def test_label_of_more_digits_than_int_converts_exits_3(self, base, tmp_path, capsys, command):
        # int() refuses over 4,300 digits with a bare ValueError
        _, csv_path, _ = base
        bad = edit_csv(csv_path, tmp_path, {(4, "room"): "9" * 5000})
        argv = rank(bad) if command == "rank-features" else run(bad, tmp_path / "exp")
        assert_exit(argv, 3, capsys, bad, "row 4", OUTSIDE)

    @pytest.mark.parametrize("command", ["rank-features", "run"])
    def test_column_span_beyond_the_float_range_exits_2(self, base, tmp_path, capsys, command):
        _, csv_path, _ = base
        bad = edit_csv(csv_path, tmp_path, {(2, "b2"): "1e308", (3, "b2"): "-1e308"})
        argv = rank(bad) if command == "rank-features" else run(bad, tmp_path / "exp")
        assert_exit(argv, 2, capsys, "normalization[1]")

    def test_huge_cell_for_predict_exits_0(self, base, tmp_path, capsys):
        # its squared distance to every rule overflows in the fallback
        _, csv_path, rb_path = base
        bad = edit_csv(csv_path, tmp_path, {(2, "b1"): "1e308"})
        out = tmp_path / "predictions.json"
        assert_exit(predict(rb_path, bad) + ["--out", out], 0, capsys)
        assert strict_json(out)["predictions"][0]["fallback_used"]

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, base, capsys, epsilon):
        _, csv_path, _ = base
        assert_exit(rank(csv_path) + ["--cfs-epsilon", epsilon], 2, capsys, "epsilon")
