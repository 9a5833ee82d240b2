"""Synthetic corridor RSSI generator.

Rooms 1..n_rooms sit on a line one unit apart; beacons are spread evenly
across the corridor. Signal strength follows a log-distance path-loss
curve f = -10*log10(max(|x - p|, 0.1)) + noise, which is monotone on each
side of a beacon, so nearby rooms get similar feature vectors. Handy as a
small, fully reproducible stand-in for real positioning data.
"""

import csv

import numpy as np

from .data import Dataset
from .errors import InvalidInputError
from .fuzzy import _finite_real

LABEL_COLUMN = "room"


def beacon_positions(n_rooms, n_beacons):
    """Evenly spaced beacon positions spanning the corridor."""
    return np.linspace(1.0, float(n_rooms), n_beacons)


def generate_synthetic(n_rooms, per_room, n_beacons, noise_sd, seed):
    """Generate a raw labeled dataset of per-room RSSI readings.

    Deterministic per seed. Features are named b1..b<n_beacons>; labels
    are the room indices 1..n_rooms.
    """
    if n_rooms < 3:
        raise InvalidInputError(f"need at least 3 rooms, got {n_rooms}")
    if n_beacons < 2:
        raise InvalidInputError(f"need at least 2 beacons, got {n_beacons}")
    if per_room < 1:
        raise InvalidInputError(f"need at least 1 instance per room, got {per_room}")
    if _finite_real(noise_sd, "noise_sd") < 0:
        raise InvalidInputError(f"noise_sd must be >= 0, got {noise_sd}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")

    positions = beacon_positions(n_rooms, n_beacons)
    rooms = np.repeat(np.arange(1, n_rooms + 1), per_room)
    distances = np.abs(rooms[:, None].astype(float) - positions[None, :])
    clean = -10.0 * np.log10(np.maximum(distances, 0.1))

    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sd, size=clean.shape)

    return Dataset(
        features=clean + noise,
        labels=rooms,
        feature_names=tuple(f"b{i + 1}" for i in range(n_beacons)),
    )


def write_csv(dataset, path, label_column=LABEL_COLUMN):
    """Write a dataset as a CSV file with full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
