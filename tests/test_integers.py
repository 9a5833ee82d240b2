"""Every public integer parameter goes through one bounded intake,
fuzzy._integer: a value past either bound, of any size, or a bool is an
InvalidInputError naming the parameter and showing the value, never a bare
ValueError, and each bound itself is accepted."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import identity_normalized
from fuzzyloc.clustering import MAX_RESTARTS, elbow_fit, kmeans
from fuzzyloc.curvature import rank_features
from fuzzyloc.data import LABEL_RANGE, Dataset
from fuzzyloc.errors import InvalidInputError
from fuzzyloc.fuzzy import INT64_MAX, TriangularFuzzySet
from fuzzyloc.pipeline import ExperimentConfig, split_scenario
from fuzzyloc.rulebase import Rule, extract_rules
from fuzzyloc.synth import MAX_CELLS, generate_synthetic

# str() refuses an int of more than 4,300 digits
BEYOND = 10**5000
SHOWN_BEYOND = "an integer beyond 64 bits"

PTS = np.array([[0.0], [1.0], [2.0]])
TWO_CLASSES = identity_normalized(
    [[0.0, 0.1], [0.1, 0.0], [0.9, 1.0], [1.0, 0.9]], [1, 1, 2, 2]
)
RAW = Dataset(features=[[0.0], [1.0], [2.0]], labels=[1, 2, 3], feature_names=("a",))
RULE_BASE = extract_rules(TWO_CLASSES, k_max=1)
ANTECEDENTS = (TriangularFuzzySet(0.0, 0.5, 1.0),)


def config(**setting):
    return ExperimentConfig(
        input_path="x.csv", label_column="label", feature_columns=("a",), **setting
    )


def synthetic(n_rooms=3, per_room=1, n_beacons=2, seed=0):
    return generate_synthetic(n_rooms, per_room, n_beacons, 0.5, seed)


# (id, call with the value, name in the message, lo, hi); hi None is open
PARAMETERS = [
    ("kmeans-k", lambda v: kmeans(PTS, v, 0), "k", 1, len(PTS)),
    ("kmeans-restarts", lambda v: kmeans(PTS, 1, 0, restarts=v), "restarts", 1, MAX_RESTARTS),
    ("kmeans-seed", lambda v: kmeans(PTS, 1, v), "seed", 0, INT64_MAX),
    ("elbow_fit-k_max", lambda v: elbow_fit(PTS, v, 0), "k_max", 1, len(PTS)),
    ("rank_features-top_n", lambda v: rank_features(TWO_CLASSES, top_n=v), "top_n", 1, 2),
    ("extract_rules-k_max", lambda v: extract_rules(TWO_CLASSES, k_max=v), "k_max", 1, INT64_MAX),
    (
        "extract_rules-selected_features",
        lambda v: extract_rules(TWO_CLASSES, k_max=1, selected_features=(v,)),
        "selected_features[0]", 0, 1,
    ),
    (
        "Rule-support_count",
        lambda v: Rule(antecedents=ANTECEDENTS, consequent=1.0, support_count=v),
        "support_count", 1, INT64_MAX,
    ),
    ("RuleBase-seed", lambda v: dataclasses.replace(RULE_BASE, seed=v), "seed", 0, INT64_MAX),
    (
        "RuleBase-supports",
        lambda v: dataclasses.replace(RULE_BASE, supports=[2, v]),
        "rules[1]: support_count", 1, INT64_MAX,
    ),
    ("ExperimentConfig-k_max", lambda v: config(k_max=v), "k_max", 1, INT64_MAX),
    ("ExperimentConfig-cfs_top_n", lambda v: config(cfs_top_n=v), "cfs_top_n", 1, INT64_MAX),
    ("ExperimentConfig-seed", lambda v: config(seed=v), "seed", 0, INT64_MAX),
    (
        "ExperimentConfig-unseen_labels",
        lambda v: config(unseen_labels=(3, v)), "unseen_labels[1]", LABEL_RANGE[0], LABEL_RANGE[-1],
    ),
    (
        "split_scenario",
        lambda v: split_scenario(RAW, (v,)), "unseen_labels[0]", LABEL_RANGE[0], LABEL_RANGE[-1],
    ),
    ("generate_synthetic-n_rooms", lambda v: synthetic(n_rooms=v), "n_rooms", 3, None),
    ("generate_synthetic-per_room", lambda v: synthetic(per_room=v), "per_room", 1, None),
    ("generate_synthetic-n_beacons", lambda v: synthetic(n_beacons=v), "n_beacons", 2, None),
    ("generate_synthetic-seed", lambda v: synthetic(seed=v), "seed", 0, INT64_MAX),
]
# a size with no upper bound meets MAX_CELLS, whose message shows every size
CELLS = {
    "generate_synthetic-n_rooms": f"{SHOWN_BEYOND} rooms x 1 rows x 2 beacons",
    "generate_synthetic-per_room": f"3 rooms x {SHOWN_BEYOND} rows x 2 beacons",
    "generate_synthetic-n_beacons": f"3 rooms x 1 rows x {SHOWN_BEYOND} beacons",
}


def refusals(parameter_id, name, lo, hi):
    """(case, value, full message) of every value the parameter refuses here."""
    yield "bool", True, f"{name} must be an integer, got bool"
    yield "lo-1", lo - 1, f"{name} must be >= {lo}, got {lo - 1}"
    yield "-10**5000", -BEYOND, f"{name} must be >= {lo}, got {SHOWN_BEYOND}"
    if hi is None:
        yield "10**5000", BEYOND, f"{CELLS[parameter_id]} exceed {MAX_CELLS} cells"
    else:
        shown = hi + 1 if (hi + 1).bit_length() <= 64 else SHOWN_BEYOND
        yield "hi+1", hi + 1, f"{name} must be <= {hi}, got {shown}"
        yield "10**5000", BEYOND, f"{name} must be <= {hi}, got {SHOWN_BEYOND}"


CASES = [
    pytest.param(call, value, message, id=f"{parameter_id}-{case}")
    for parameter_id, call, name, lo, hi in PARAMETERS
    for case, value, message in refusals(parameter_id, name, lo, hi)
]


@pytest.mark.parametrize("call, value, message", CASES)
def test_a_value_past_a_bound_is_refused_by_name(call, value, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, lo, hi", [pytest.param(p[1], p[3], p[4], id=p[0]) for p in PARAMETERS]
)
def test_each_bound_is_accepted(call, lo, hi):
    call(lo)
    if hi is not None:
        call(hi)
    call(np.int64(lo))
