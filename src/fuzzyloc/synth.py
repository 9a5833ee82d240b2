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
from .fuzzy import _finite_real, _integer, _seed, _shown

LABEL_COLUMN = "room"
# rooms x rows per room x beacons: 80 MB per float64 table
MAX_CELLS = 10**7


def beacon_positions(n_rooms, n_beacons):
    """Evenly spaced beacon positions spanning the corridor."""
    return np.linspace(1.0, float(n_rooms), n_beacons)


def generate_synthetic(n_rooms, per_room, n_beacons, noise_sd, seed):
    """Generate a raw labeled dataset of per-room RSSI readings.

    Deterministic per seed. Features are named b1..b<n_beacons>; labels
    are the room indices 1..n_rooms. The sizes must be integers of at
    least 3 rooms, 1 row per room and 2 beacons (_integer), and the seed a
    _seed. A table of more than MAX_CELLS cells, or one holding a
    non-finite reading, is refused.
    """
    n_rooms = _integer(n_rooms, "n_rooms", 3)
    per_room = _integer(per_room, "per_room", 1)
    n_beacons = _integer(n_beacons, "n_beacons", 2)
    seed = _seed(seed)
    if _finite_real(noise_sd, "noise_sd") < 0:
        raise InvalidInputError(f"noise_sd must be >= 0, got {noise_sd}")
    if n_rooms * per_room * n_beacons > MAX_CELLS:
        raise InvalidInputError(
            f"{_shown(n_rooms)} rooms x {_shown(per_room)} rows x {_shown(n_beacons)} beacons "
            f"exceed {MAX_CELLS} cells"
        )

    positions = beacon_positions(n_rooms, n_beacons)
    rooms = np.repeat(np.arange(1, n_rooms + 1), per_room)
    distances = np.abs(rooms[:, None].astype(float) - positions[None, :])
    clean = -10.0 * np.log10(np.maximum(distances, 0.1))

    rng = np.random.default_rng(seed)
    features = clean + rng.normal(0.0, noise_sd, size=clean.shape)
    if not np.isfinite(features).all():
        raise InvalidInputError(f"noise_sd {noise_sd!r} makes readings non-finite")

    return Dataset(
        features=features,
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
