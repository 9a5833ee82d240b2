import numpy as np
import pytest

from fuzzyloc.data import Dataset, Normalization
from fuzzyloc.fuzzy import SimilarityParams, TriangularFuzzySet
from fuzzyloc.inference import Predictions
from fuzzyloc.pipeline import ExperimentConfig, train_rulebase
from fuzzyloc.rulebase import PER_CLASS, Rule, RuleBase
from fuzzyloc.synth import generate_synthetic, write_csv

CORRIDOR = dict(n_rooms=10, per_room=30, n_beacons=5, noise_sd=0.5, seed=42)


def identity_normalized(features, labels, names=None):
    """Dataset whose values are already in normalized units (min 0, max 1)."""
    features = np.asarray(features, dtype=float)
    if names is None:
        names = tuple(f"f{i}" for i in range(features.shape[1]))
    norm = Normalization(mins=(0.0,) * features.shape[1], maxs=(1.0,) * features.shape[1])
    return Dataset(features=features, labels=labels, feature_names=names, normalization=norm)


def predictions_of(rows, n_rules=0):
    """Predictions holding (gamma, label, total_firing) rows, over n_rules
    rules that all fired 0; a row falls back when its total is 0."""
    gammas, labels, totals = zip(*rows) if rows else ((),) * 3
    return Predictions(
        np.array(gammas, dtype=float), np.array(labels, dtype=np.int64),
        np.array(totals, dtype=float), np.zeros((len(rows), n_rules)),
    )


def sorted_triple(rng, lo=-10.0, hi=10.0):
    return TriangularFuzzySet(*sorted(rng.uniform(lo, hi, size=3)))


def random_rulebase(rng):
    """A structurally valid rule base with randomized contents."""
    n_original = int(rng.integers(1, 5))
    arity = int(rng.integers(1, n_original + 1))
    selected = tuple(sorted(rng.choice(n_original, size=arity, replace=False).tolist()))
    mins = rng.uniform(-100.0, 100.0, size=n_original)
    maxs = mins + rng.uniform(0.0, 50.0, size=n_original)
    universe_lo = int(rng.integers(-5, 5))
    universe = tuple(range(universe_lo, universe_lo + int(rng.integers(1, 12))))
    rules = tuple(
        Rule(
            antecedents=tuple(sorted_triple(rng) for _ in range(arity)),
            consequent=float(rng.uniform(universe[0], universe[-1])),
            support_count=int(rng.integers(1, 40)),
        )
        for _ in range(int(rng.integers(1, 6)))
    )
    return RuleBase(
        rules=rules,
        params=SimilarityParams(h=float(rng.uniform(0.5, 10.0)), omega=float(rng.uniform(0.0, 10.0))),
        feature_names=tuple(f"f{i}" for i in range(n_original)),
        normalization=Normalization(mins=tuple(mins), maxs=tuple(maxs)),
        selected_features=selected,
        label_universe=universe,
        consequent_strategy=PER_CLASS,
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.fixture(scope="session")
def corridor():
    return generate_synthetic(**CORRIDOR)


@pytest.fixture(scope="session")
def corridor_csv(corridor, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corridor.csv"
    write_csv(corridor, path)
    return str(path)


@pytest.fixture(scope="session")
def corridor_config(corridor_csv):
    return ExperimentConfig(
        input_path=corridor_csv,
        label_column="room",
        feature_columns=("b1", "b2", "b3", "b4", "b5"),
        unseen_labels=(5,),
        seed=42,
    )


@pytest.fixture(scope="session")
def corridor_rulebase(corridor_config):
    return train_rulebase(corridor_config).rule_base
