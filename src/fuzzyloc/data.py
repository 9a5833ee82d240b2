"""Dataset container, min-max normalization and CSV ingestion."""

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, InvalidInputError, SchemaError
from .fuzzy import _finite_real

_PREFIXED_LABEL = re.compile(r"^[cC](-?\d+)$")
_PLAIN_LABEL = re.compile(r"^[+-]?\d+$")
LABEL_RANGE = range(-(2**63), 2**63)  # labels are held as int64
MAX_RANGE_LABELS = 1024  # a derived or N..M universe; a listed one is not bounded


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

    def apply_matrix(self, features):
        """Normalize an array whose last axis holds the features, unclamped.

        Elementwise the same arithmetic as apply_value, so the bits agree.
        """
        mins = np.asarray(self.mins, dtype=float)
        spans = np.asarray(self.maxs, dtype=float) - mins
        nonconstant = spans > 0.0
        out = (np.asarray(features, dtype=float) - mins) / np.where(nonconstant, spans, 1.0)
        return np.where(nonconstant, out, 0.0)


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
        labels = np.asarray(self.labels, dtype=np.int64)
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
    """Parse one label cell into (integer value, format kind).

    Accepts plain integers ("8") and class-prefixed forms ("c8" / "C8");
    kind is "plain" or "prefixed" so callers can reject mixed files.
    """
    text = text.strip()
    m = _PREFIXED_LABEL.match(text)
    if m:
        value, kind = int(m.group(1)), "prefixed"
    elif _PLAIN_LABEL.match(text):
        value, kind = int(text), "plain"
    else:
        raise SchemaError(f"label {text!r} is neither an integer nor a c<N> class name")
    if value not in LABEL_RANGE:
        raise DataError(f"label {text!r} does not fit in a 64-bit integer")
    return value, kind


def label_universe(labels, given=None):
    """The labels a model may emit, as an ascending tuple holding labels:
    given (a sequence or a range) if passed, else the range spanning labels.
    A range is bounded before it is expanded; InvalidInputError on a fault."""
    labels = set(map(int, labels))
    if given is None:
        given = range(min(labels), max(labels) + 1) if labels else range(0)
    # every universe label gets a row and a column of the dense confusion
    if isinstance(given, range) and given[MAX_RANGE_LABELS:]:
        raise InvalidInputError(
            f"label range {given.start}..{given.stop - 1} spans more than {MAX_RANGE_LABELS} "
            "labels; list the labels instead, as in --label-universe 1,2,5"
        )
    universe = tuple(map(int, given))
    if not universe or any(b <= a for a, b in zip(universe, universe[1:])):
        raise InvalidInputError("label_universe must be non-empty and strictly increasing")
    if universe[0] not in LABEL_RANGE or universe[-1] not in LABEL_RANGE:
        raise InvalidInputError("label_universe entries must fit in a 64-bit integer")
    missing = sorted(labels.difference(universe))
    if missing:
        raise InvalidInputError(f"label_universe does not cover labels {missing}")
    return universe


def _resolve_columns(header, wanted, path):
    positions = {}
    for idx, name in enumerate(header):
        positions.setdefault(name, []).append(idx)
    resolved = []
    for name in wanted:
        hits = positions.get(name, [])
        if not hits:
            raise SchemaError(f"{path}: column {name!r} not present in header")
        if len(hits) > 1:
            raise SchemaError(f"{path}: column {name!r} appears {len(hits)} times in header")
        resolved.append(hits[0])
    return resolved


@contextmanager
def _open_csv(path):
    """Yield the stripped header and an iterator of (line, row) over the
    rows of a UTF-8 CSV file, line being the one the row starts on (a
    quoted cell may span lines); failures raise ConfigError (opening) or
    DataError, naming path and line."""
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
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
            yield [name.strip() for name in header[1]], rows
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise DataError(f"{path}: row {ended[0] + 1}: {exc}") from None


def read_csv_header(path):
    """Return the header row of a CSV file."""
    with _open_csv(path) as (header, _):
        return header


def _read_table(path, feature_columns, label_column=None):
    """Parse the requested feature columns, and a label column if one is
    named, of an RFC-4180 CSV file with a header row.

    Returns (features as an (n, f) array, labels as a list or None).
    Labels must all use one format (plain integers or c<N>). Rows with too
    few cells or an unparseable or non-finite feature cell are rejected
    together, each named by its line (header = line 1) and cell.
    """
    with _open_csv(path) as (header, records):
        wanted = list(feature_columns) + ([] if label_column is None else [label_column])
        positions = _resolve_columns(header, wanted, path)
        feat_pos, label_pos = positions[: len(feature_columns)], positions[-1]

        rows = []
        labels = None if label_column is None else []
        parsed_labels = {}
        label_kind = None
        bad_rows = []
        for row_number, row in records:
            if not row:
                continue
            if len(row) < len(header):
                bad_rows.append((row_number, "too few cells"))
                continue
            try:
                values = [float(row[pos]) for pos in feat_pos]
                usable = all(map(math.isfinite, values))
            except ValueError:
                usable = False
            if not usable:
                cells = (row[pos] for pos in feat_pos)
                bad_rows.append((row_number, next(filter(None, map(_cell_fault, cells)))))
                continue
            if labels is not None:
                cell = row[label_pos]
                if cell not in parsed_labels:
                    try:
                        parsed_labels[cell] = parse_label(cell)
                    except (SchemaError, DataError) as exc:
                        raise type(exc)(f"{path}: row {row_number}: {exc}") from None
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


def _cell_fault(cell):
    """Why a feature cell is unusable, or None when it holds a finite number.

    Parsed as _read_table parses it: float() keeps characters, such as
    "\\x1c", that str.strip() drops."""
    shown = cell.strip(" \t")
    try:
        value = float(cell)
    except ValueError:
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
    if not feature_columns:
        raise SchemaError(f"{path}: no feature columns requested")
    features, labels = _read_table(path, feature_columns, label_column)
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        feature_names=tuple(feature_columns),
    )


def read_feature_rows(path, feature_columns):
    """Load only the requested feature columns (no labels), as a 2-D array."""
    return _read_table(path, [str(c) for c in feature_columns])[0]
