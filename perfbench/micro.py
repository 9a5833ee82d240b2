"""Micro-timings of single kernels at fixed shapes (per-layer metrics only).

Each timing is the median of repeats of a fixed amount of work, so a
kernel change shows here even when its share of a workload is small.
"""

import statistics
import time

import numpy as np

from fuzzyloc import clustering, curvature, fuzzy, inference
from fuzzyloc.data import Normalization
from fuzzyloc.rulebase import PER_CLASS, Rule, RuleBase

# the shape of the predict-stream rule base: 74 rules over 24 beacons
FIRING_RULES, FIRING_DIMS, FIRING_ROWS = 74, 24, 30
SIMILARITY_CALLS = 20000
CLASS_SHAPE, GLOBAL_SHAPE, FIT_K = (100, 24), (3900, 16), 5
CURVATURE_COLUMN = 4000


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _firing_rulebase(rng):
    mids = rng.uniform(0.2, 0.8, size=(FIRING_RULES, FIRING_DIMS))
    spreads = rng.uniform(0.02, 0.15, size=(FIRING_RULES, FIRING_DIMS, 2))
    rules = [
        Rule(
            antecedents=[
                fuzzy.TriangularFuzzySet(m - s[0], m, m + s[1]) for m, s in zip(mids[r], spreads[r])
            ],
            consequent=float(1 + r % 21),
            support_count=1,
        )
        for r in range(FIRING_RULES)
    ]
    return RuleBase(
        rules=rules,
        params=fuzzy.SimilarityParams(),
        feature_names=[f"b{i + 1}" for i in range(FIRING_DIMS)],
        normalization=Normalization(mins=(0.0,) * FIRING_DIMS, maxs=(1.0,) * FIRING_DIMS),
        selected_features=range(FIRING_DIMS),
        label_universe=range(1, 22),
        consequent_strategy=PER_CLASS,
        seed=0,
    ), mids


def micro_timings(seed, repeats):
    """Per-layer micro-timings, each the median of ``repeats`` runs."""
    rng = np.random.default_rng(seed)

    a = fuzzy.TriangularFuzzySet(0.2, 0.35, 0.5)
    b = fuzzy.TriangularFuzzySet(0.3, 0.4, 0.6)
    params = fuzzy.SimilarityParams()
    similarity = fuzzy.similarity

    def similarities():
        for _ in range(SIMILARITY_CALLS):
            similarity(a, b, params)

    rb, mids = _firing_rulebase(rng)
    rows = mids[rng.integers(FIRING_RULES, size=FIRING_ROWS)] + rng.normal(
        0.0, 0.05, size=(FIRING_ROWS, FIRING_DIMS)
    )

    def firings():
        for row in rows:
            inference.predict(rb, row)

    class_points = rng.normal(size=CLASS_SHAPE)
    global_points = rng.normal(size=GLOBAL_SHAPE)
    column = rng.uniform(size=CURVATURE_COLUMN)

    return {
        "fuzzy.similarity_ns": (_median_time(similarities, repeats) / SIMILARITY_CALLS * 1e9, "ns"),
        "inference.firing_rows_per_s": (FIRING_ROWS / _median_time(firings, repeats), "1/s"),
        "clustering.kmeans_fit_ms": (
            _median_time(lambda: clustering.kmeans(class_points, FIT_K, seed, restarts=1), repeats) * 1e3,
            "ms",
        ),
        "clustering.kmeans_fit_ms_global": (
            _median_time(lambda: clustering.kmeans(global_points, FIT_K, seed, restarts=1), repeats) * 1e3,
            "ms",
        ),
        "curvature.column_ms": (
            _median_time(lambda: curvature.feature_curvature(column), repeats) * 1e3,
            "ms",
        ),
    }
