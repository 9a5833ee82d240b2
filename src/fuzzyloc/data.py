"""Dataset container, min-max normalization, CSV ingestion and text-file output."""

import csv
import io
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, InvalidInputError, SchemaError, prefixed
from .fuzzy import INT64_MAX, _finite_real, _integers

_PREFIXED_LABEL = re.compile(r"^[cC](-?[0-9]+)$")
_PLAIN_LABEL = re.compile(r"^[+-]?[0-9]+$")
LABEL_RANGE = range(-INT64_MAX - 1, INT64_MAX + 1)  # labels are held as int64
MAX_RANGE_LABELS = 1024  # a derived or N..M universe; a listed one is not bounded
# the bytes of a plainly numeric CSV body: within them the csv module splits
# on "," and "\n" alone, and float() and np.loadtxt both read a cell as the
# correctly rounded double
_NUMERIC_BODY = b"0123456789.eE+-,\n"


@dataclass(frozen=True)
class Normalization:
    """Per-feature min/max learned from training data.

    A feature with max == min is constant in the training data; its values
    normalize to 0.0 by convention. Values outside the training range pass
    through unclamped (they may map below 0 or above 1).
    """

    mins: tuple
    maxs: tuple

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise InvalidInputError("normalization mins/maxs length mismatch")
        for i, (lo, hi) in enumerate(zip(self.mins, self.maxs)):
            lo = _finite_real(lo, f"normalization[{i}].min")
            hi = _finite_real(hi, f"normalization[{i}].max")
            # the span divides every value, so it must be finite too
            if not (lo <= hi and math.isfinite(float(hi) - float(lo))):
                raise InvalidInputError(f"bad bounds ({lo}, {hi}) for normalization[{i}]")
        object.__setattr__(self, "mins", tuple(map(float, self.mins)))
        object.__setattr__(self, "maxs", tuple(map(float, self.maxs)))

    @property
    def n_features(self):
        return len(self.mins)

    def apply_value(self, value, feature_index):
        lo = self.mins[feature_index]
        hi = self.maxs[feature_index]
        if hi == lo:
            return 0.0
        return (value - lo) / (hi - lo)

    @cached_property
    def _arrays(self):
        """Read-only (mins, divisors, constant) arrays, built on first use;
        a divisor is its feature's span, or 1.0 where the feature is
        constant. constant is the mask of constant features, or None when
        there are none."""
        mins = np.array(self.mins)
        spans = np.array(self.maxs) - mins
        constant = ~(spans > 0.0)
        divisors = np.where(constant, 1.0, spans)
        for array in (mins, divisors, constant):
            array.flags.writeable = False
        return mins, divisors, constant if constant.any() else None

    def apply_matrix(self, features):
        """Normalize an array whose last axis holds the features, unclamped.

        Elementwise the same arithmetic as apply_value, so the bits agree.
        """
        mins, divisors, constant = self._arrays
        out = (np.asarray(features, dtype=float) - mins) / divisors
        return out if constant is None else np.where(constant, 0.0, out)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with integer labels.

    features is float64 of shape (n_instances, n_features); labels is an
    int64 vector. normalization is attached once fit_normalization has run
    (at which point features hold normalized values).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    normalization: Optional[Normalization] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if labels.size and (labels.dtype.kind not in "iu" or labels.max() > LABEL_RANGE[-1]):
            raise InvalidInputError(f"labels must be 64-bit integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        if features.ndim != 2:
            raise InvalidInputError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or len(labels) != len(features):
            raise InvalidInputError("labels must be one integer per instance")
        if len(self.feature_names) != features.shape[1]:
            raise InvalidInputError(
                f"{len(self.feature_names)} feature names for {features.shape[1]} columns"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))

    @property
    def n_instances(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def subset(self, mask):
        """Row subset with the same names and normalization metadata."""
        return Dataset(
            features=self.features[mask],
            labels=self.labels[mask],
            feature_names=self.feature_names,
            normalization=self.normalization,
        )


def fit_normalization(raw):
    """Fit per-feature min/max on a raw dataset and return it normalized."""
    if raw.n_instances == 0:
        raise InvalidInputError("cannot fit normalization on an empty dataset")
    if raw.normalization is not None:
        raise InvalidInputError("dataset is already normalized")
    norm = Normalization(
        mins=tuple(raw.features.min(axis=0)), maxs=tuple(raw.features.max(axis=0))
    )
    return Dataset(
        features=norm.apply_matrix(raw.features),
        labels=raw.labels,
        feature_names=raw.feature_names,
        normalization=norm,
    )


def parse_label(text):
    """Read one label as (integer value, format kind).

    Accepts plain integers ("8") and class-prefixed forms ("c8" / "C8"),
    in ASCII digits with no digit separators; kind is "plain" or
    "prefixed" so callers can reject mixed files. SchemaError for any other text, and DataError for
    a label beyond 64 bits, whatever its digit count.
    """
    text = text.strip()
    m = _PREFIXED_LABEL.match(text)
    if not (m or _PLAIN_LABEL.match(text)):
        raise SchemaError(f"label {text!r} is neither an integer nor a c<N> class name")
    number = m.group(1) if m else text
    try:
        value = int(number)
    except ValueError:
        # int() refuses over 4,300 digits, leading zeros counted; 20
        # significant digits are beyond 64 bits already
        significant = number.lstrip("+-").lstrip("0") or "0"
        value = int(number[0] + significant) if len(significant) < 20 else LABEL_RANGE.stop
    if value not in LABEL_RANGE:
        raise DataError(f"label {text!r} does not fit in a 64-bit integer")
    return value, "prefixed" if m else "plain"


def _labels(values, what):
    """values as a tuple of _integers in LABEL_RANGE, the i-th named what[i]."""
    return _integers(values, what, LABEL_RANGE[0], LABEL_RANGE[-1])


def label_universe(labels, given=None):
    """The labels a model may emit, as an ascending tuple holding labels:
    given (a sequence or a range) if passed, else the range spanning labels.
    Every label and entry, and first a range's ends, go through _labels,
    and a range's span is checked before it is expanded; InvalidInputError
    on a fault."""
    labels = set(_labels(labels, "labels"))
    if given is None:
        given = range(min(labels), max(labels) + 1) if labels else range(0)
    if isinstance(given, range) and given:
        _labels((given[0], given[-1]), "label range ends")
        # every universe label gets a row and a column of the dense confusion
        if given[MAX_RANGE_LABELS:]:
            raise InvalidInputError(
                f"label range {given[0]}..{given[-1]} spans more than {MAX_RANGE_LABELS} "
                "labels; list the labels instead, as in --label-universe 1,2,5"
            )
    universe = _labels(given, "label_universe")
    if not universe or any(b <= a for a, b in zip(universe, universe[1:])):
        raise InvalidInputError("label_universe must be non-empty and strictly increasing")
    missing = sorted(labels.difference(universe))
    if missing:
        raise InvalidInputError(f"label_universe does not cover labels {missing}")
    return universe


def _resolve_columns(header, wanted, path):
    positions = {}
    for idx, name in enumerate(header):
        positions.setdefault(name, []).append(idx)
    resolved = []
    for i, name in enumerate(wanted):
        if name in wanted[:i]:
            raise SchemaError(f"{path}: column {name!r} is requested twice")
        hits = positions.get(name, [])
        if not hits:
            raise SchemaError(f"{path}: column {name!r} not present in header")
        if len(hits) > 1:
            raise SchemaError(f"{path}: column {name!r} appears {len(hits)} times in header")
        resolved.append(hits[0])
    return resolved


@contextmanager
def _open_csv(path):
    """Yield the stripped header, an iterator of (line, row) over the rows
    of a UTF-8 CSV file, line being the one the row starts on (a quoted
    cell may span lines), and the file's bytes, read once; failures raise
    ConfigError (reading) or DataError, naming path and line."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8-sig", newline=""))
    ended = [0]  # the line the last complete record ended on

    def records():
        for row in reader:
            yield ended[0] + 1, row
            ended[0] = reader.line_num

    try:
        rows = records()
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        yield [name.strip() for name in header[1]], rows, blob
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: row {ended[0] + 1}: {exc}") from None


def read_csv_header(path):
    """Return the header row of a CSV file."""
    with _open_csv(path) as (header, _, _):
        return header


def _read_table(path, feature_columns, label_column=None):
    """Parse the requested feature columns, and a label column if one is
    named, of an RFC-4180 CSV file with a header row.

    Returns (features as an (n, f) array, labels as a list or None).
    Labels must all use one format (plain integers or c<N>). Rows with
    fewer or more cells than the header, or an unparseable or non-finite
    feature cell, are rejected together, each named by its line (header =
    line 1) and cell. An empty feature_columns is refused before the file
    is opened. A plainly numeric file is read by numpy's C parser instead
    of the csv module (see _numeric_table), into the same arrays.
    """
    if not feature_columns:
        raise SchemaError(f"{path}: no feature columns requested")
    with _open_csv(path) as (header, records, blob):
        wanted = list(feature_columns) + ([] if label_column is None else [label_column])
        positions = _resolve_columns(header, wanted, path)
        feat_pos, label_pos = positions[: len(feature_columns)], positions[-1]
        table = _numeric_table(
            blob, len(header), feat_pos, None if label_column is None else label_pos
        )
        if table is not None:
            return table

        rows = []
        labels = None if label_column is None else []
        parsed_labels = {}
        label_kind = None
        bad_rows = []
        for row_number, row in records:
            if not row:
                continue
            if len(row) != len(header):
                # a longer row is refused too: a decimal comma splits a cell
                # and moves every later cell one column over
                few = len(row) < len(header)
                bad_rows.append((row_number, "too few cells" if few else "too many cells"))
                continue
            cells = [row[pos] for pos in feat_pos]
            try:
                values = list(map(float, cells))
                usable = _plain_number("".join(cells)) and all(map(math.isfinite, values))
            except ValueError:
                usable = False
            if not usable:
                bad_rows.append((row_number, next(filter(None, map(_cell_fault, cells)))))
                continue
            if labels is not None:
                cell = row[label_pos]
                if cell not in parsed_labels:
                    with prefixed(f"{path}: row {row_number}"):
                        parsed_labels[cell] = parse_label(cell)
                label, kind = parsed_labels[cell]
                if label_kind is None:
                    label_kind = kind
                elif kind != label_kind:
                    raise SchemaError(
                        f"{path}: mixed label formats (row {row_number} uses {kind}, "
                        f"earlier rows use {label_kind})"
                    )
                labels.append(label)
            rows.append(values)

    if bad_rows:
        listed = "; ".join(f"row {n}: {why}" for n, why in bad_rows[:10])
        more = "" if len(bad_rows) <= 10 else f" (and {len(bad_rows) - 10} more)"
        raise DataError(f"{path}: {len(bad_rows)} unusable rows: {listed}{more}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float), labels


def _numeric_table(blob, n_cells, feat_pos, label_pos=None):
    """_read_table's (features, labels) of a plainly numeric CSV file whose
    bytes are blob, parsed by numpy's C parser, or None.

    A file is plainly numeric when its header record is its first line,
    every body byte is in _NUMERIC_BODY, it has a non-blank line, every
    line fits in the csv module's field limit and holds n_cells numbers,
    the label (when label_pos is given) a 64-bit integer, and every
    selected value is finite. The csv reader reads such a file into the
    same arrays. A declined file goes to the csv reader, so every message
    is the csv reader's own.
    """
    start = blob.find(b"\n") + 1
    head = blob[:start]
    # the header record is the first line: the csv module ends a record at
    # "\r" too, and a quoted header cell over several lines leaves a '"' in the body
    if (
        not start
        or b"\r" in head
        or blob.translate(None, _NUMERIC_BODY) != head.translate(None, _NUMERIC_BODY)
    ):
        return None
    # the csv module refuses a cell over its field limit, so a line that
    # long is declined: a window of limit + 1 bytes from a line start
    # without a "\n" holds one
    limit = csv.field_size_limit()
    while len(blob) - start > limit:
        end = blob.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return None
        start = end + 1
    # a row of another width, or a label that is no plain 64-bit integer,
    # fails the parse; every label in _NUMERIC_BODY is plain, as the csv
    # reader reads it, so no two formats can mix
    dtype = [(str(i), np.int64 if i == label_pos else float) for i in range(n_cells)]
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a body without data rows, and a numpy that
            # reads an int64 from "1.0" warns as it does so
            warnings.simplefilter("error")
            table = np.loadtxt(
                io.BytesIO(blob), dtype, delimiter=",", comments=None, skiprows=1, ndmin=1
            )
    except (ValueError, Warning):
        return None
    features = np.column_stack([table[str(i)] for i in feat_pos])
    if not len(table) or not np.isfinite(features).all():  # no data rows, or an overflow
        return None
    return features, None if label_pos is None else table[str(label_pos)].tolist()


def _plain_number(text):
    """Whether text is free of what float() and int() read but no CSV
    number holds: characters beyond ASCII, such as Arabic-Indic or
    fullwidth digits, and PEP 515 digit separators ("1_5")."""
    return text.isascii() and "_" not in text


def _cell_fault(cell):
    """Why a feature cell is unusable, or None when it holds a finite number.

    Parsed as _read_table parses it: float() keeps characters, such as
    "\\x1c", that str.strip() drops, and reads text that _plain_number
    refuses."""
    shown = cell.strip(" \t")
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not _plain_number(cell):
        return f"unparseable cell {shown!r}"
    return None if math.isfinite(value) else f"non-finite cell {shown!r}"


def load_csv(path, label_column, feature_columns):
    """Load a labeled dataset from an RFC-4180 CSV file with a header row.

    feature_columns are taken in the requested order. Labels must all use
    one format (plain integers or c<N>); rows with unparseable or
    non-finite feature cells are rejected, citing the lines their rows
    start on (header = line 1) and cells.
    """
    feature_columns = [str(c) for c in feature_columns]
    features, labels = _read_table(path, feature_columns, label_column)
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        feature_names=tuple(feature_columns),
    )


def read_feature_rows(path, feature_columns):
    """Load only the requested feature columns (no labels), as a 2-D array."""
    return _read_table(path, [str(c) for c in feature_columns])[0]


def write_text(path, text):
    """Write text to path as UTF-8 with "\\n" line ends, replacing the file.

    Every text artifact (rule base, report, confusion, predictions, CLI
    output) is written here, so equal text is equal bytes on any platform.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
