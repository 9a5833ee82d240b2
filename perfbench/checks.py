"""Correctness checks against the scalar reference in ``fuzzyloc.fuzzy``.

``reference_prediction`` recomputes one prediction from the readable scalar
functions (``similarity``, ``firing_degree``, ``aggregate``), the nearest-label
rule and the nearest-rule fallback, without calling ``fuzzyloc.inference``.
A fast path may differ from it in the last bits (another summation order,
``np.exp`` for ``math.exp``), so gamma is compared with a relative tolerance
of ``GAMMA_ULPS`` units in the last place, while the label must be equal.
"""

import math

from fuzzyloc import fuzzy

GAMMA_ULPS = 16
_EPS = 2.0**-52


def discretize(gamma, label_universe):
    """Nearest label; exact midpoints go to the smaller label."""
    return min(label_universe, key=lambda u: (abs(gamma - u), u))


def _normalized(rb, observation_sets):
    norm = rb.normalization
    return [
        fuzzy.TriangularFuzzySet(
            norm.apply_value(observation_sets[j].a1, j),
            norm.apply_value(observation_sets[j].a2, j),
            norm.apply_value(observation_sets[j].a3, j),
        )
        for j in rb.selected_features
    ]


def reference_prediction(rb, observation_sets):
    """(gamma, label, fallback_used) from the scalar reference functions."""
    obs = _normalized(rb, observation_sets)
    firings = [
        fuzzy.firing_degree(fuzzy.similarity(o, a, rb.params) for o, a in zip(obs, rule.antecedents))
        for rule in rb.rules
    ]
    if sum(firings) > 0.0:
        gamma = fuzzy.aggregate(firings, [rule.consequent for rule in rb.rules])
        fallback = False
    else:
        obs_rep = [fuzzy.representative(s) for s in obs]
        nearest = min(
            rb.rules,
            key=lambda rule: math.dist(obs_rep, [fuzzy.representative(a) for a in rule.antecedents]),
        )
        gamma = nearest.consequent
        fallback = True
    return gamma, discretize(gamma, rb.label_universe), fallback


def crisp_sets(row):
    return [fuzzy.singleton(float(v)) for v in row]


def gamma_close(gamma, reference):
    return abs(gamma - reference) <= GAMMA_ULPS * _EPS * max(1.0, abs(reference))


def check_prediction(rb, observation_sets, gamma, label):
    """True when (gamma, label) agrees with the scalar reference."""
    ref_gamma, ref_label, _ = reference_prediction(rb, observation_sets)
    return label == ref_label and gamma_close(gamma, ref_gamma)


def sample_indices(n, count):
    """Up to ``count`` evenly spread indices of range(n), always including 0."""
    if n <= count:
        return list(range(n))
    step = n / count
    return sorted({int(i * step) for i in range(count)})
