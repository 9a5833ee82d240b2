"""Dataset container, min-max normalization and CSV ingestion."""

import csv
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, InvalidInputError, SchemaError

_PREFIXED_LABEL = re.compile(r"^[cC](-?\d+)$")
_PLAIN_LABEL = re.compile(r"^[+-]?\d+$")


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
        for lo, hi in zip(self.mins, self.maxs):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise InvalidInputError(f"bad normalization bounds ({lo}, {hi})")

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
    mins = tuple(float(v) for v in raw.features.min(axis=0))
    maxs = tuple(float(v) for v in raw.features.max(axis=0))
    norm = Normalization(mins=mins, maxs=maxs)
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
        return int(m.group(1)), "prefixed"
    if _PLAIN_LABEL.match(text):
        return int(text), "plain"
    raise SchemaError(f"label {text!r} is neither an integer nor a c<N> class name")


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


def read_csv_header(path):
    """Return the header row of a CSV file."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: file is empty")
    return [name.strip() for name in header]


def load_csv(path, label_column, feature_columns):
    """Load a labeled dataset from an RFC-4180 CSV file with a header row.

    feature_columns are taken in the requested order. Labels must all use
    one format (plain integers or c<N>); rows with unparseable or
    non-finite feature cells are rejected, citing their row numbers
    (header = row 1).
    """
    feature_columns = [str(c) for c in feature_columns]
    if not feature_columns:
        raise SchemaError(f"{path}: no feature columns requested")
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [name.strip() for name in header]
        positions = _resolve_columns(header, feature_columns + [label_column], path)
        feat_pos = positions[:-1]
        label_pos = positions[-1]

        rows = []
        labels = []
        label_kind = None
        bad_rows = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                bad_rows.append((row_number, "too few cells"))
                continue
            values = []
            row_ok = True
            for pos in feat_pos:
                cell = row[pos].strip()
                try:
                    value = float(cell)
                except ValueError:
                    bad_rows.append((row_number, f"unparseable cell {cell!r}"))
                    row_ok = False
                    break
                if not math.isfinite(value):
                    bad_rows.append((row_number, f"non-finite cell {cell!r}"))
                    row_ok = False
                    break
                values.append(value)
            if not row_ok:
                continue
            label, kind = parse_label(row[label_pos])
            if label_kind is None:
                label_kind = kind
            elif kind != label_kind:
                raise SchemaError(
                    f"{path}: mixed label formats (row {row_number} uses {kind}, "
                    f"earlier rows use {label_kind})"
                )
            rows.append(values)
            labels.append(label)

    if bad_rows:
        listed = "; ".join(f"row {n}: {why}" for n, why in bad_rows[:10])
        more = "" if len(bad_rows) <= 10 else f" (and {len(bad_rows) - 10} more)"
        raise DataError(f"{path}: {len(bad_rows)} unusable rows: {listed}{more}")
    if not rows:
        raise DataError(f"{path}: no data rows")

    return Dataset(
        features=np.array(rows, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        feature_names=tuple(feature_columns),
    )


def read_feature_rows(path, feature_columns):
    """Load only the requested feature columns (no labels), as a 2-D array."""
    feature_columns = [str(c) for c in feature_columns]
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [name.strip() for name in header]
        feat_pos = _resolve_columns(header, feature_columns, path)

        rows = []
        bad_rows = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                bad_rows.append((row_number, "too few cells"))
                continue
            try:
                values = [float(row[pos]) for pos in feat_pos]
            except ValueError:
                bad_rows.append((row_number, "unparseable cell"))
                continue
            if not all(math.isfinite(v) for v in values):
                bad_rows.append((row_number, "non-finite cell"))
                continue
            rows.append(values)

    if bad_rows:
        listed = "; ".join(f"row {n}: {why}" for n, why in bad_rows[:10])
        raise DataError(f"{path}: {len(bad_rows)} unusable rows: {listed}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)
