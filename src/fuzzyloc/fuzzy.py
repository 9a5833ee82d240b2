"""Triangular fuzzy sets and the matching machinery built on them.

A set is a triple (a1, a2, a3) with a1 <= a2 <= a3: the support ends and
the normal point. Matching of two sets combines a vertex-wise shape term
with a sigmoid discount on the distance between the set centers, so sets
that do not overlap at all still match to a positive degree. That is what
lets a sparse rule base produce output for observations falling between
rules.

All functions here are pure; the dataclasses are immutable.
"""

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidInputError, ZeroFiringError


def _finite_real(v, what):
    """v as a finite real number; raises InvalidInputError naming what.

    int and float pass unchanged (the common case, checked first); other
    real numbers, numpy scalars among them, convert to float. bool is
    refused although it is an int.
    """
    if type(v) is not float and type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise InvalidInputError(f"{what} must be a real number, got {type(v).__name__}")
        v = float(v)
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise InvalidInputError(f"non-finite {what}: {v!r}")
    return v


@dataclass(frozen=True)
class TriangularFuzzySet:
    """Normal, convex triangular fuzzy set on the real line.

    a1 and a3 bound the support, a2 is the normal point. The degenerate
    triple a1 == a2 == a3 encodes a crisp value (a singleton).
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3"):
            v = getattr(self, name)
            real = _finite_real(v, "fuzzy set vertex")
            if real is not v:
                object.__setattr__(self, name, real)
        if not (self.a1 <= self.a2 <= self.a3):
            raise InvalidInputError(
                "fuzzy set vertices must satisfy a1 <= a2 <= a3, got "
                f"({self.a1}, {self.a2}, {self.a3})"
            )


@dataclass(frozen=True)
class SimilarityParams:
    """Parameters of the distance discount.

    h scales how fast similarity decays with distance (must be positive;
    larger h means faster decay), omega shifts the sigmoid so that two
    coincident sets score close to 1 rather than 0.5.
    """

    h: float = 5.0
    omega: float = 5.0

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise InvalidInputError(f"sensitivity factor h must be finite and > 0, got {self.h!r}")
        if not (isinstance(self.omega, (int, float)) and math.isfinite(self.omega)):
            raise InvalidInputError(f"offset omega must be finite, got {self.omega!r}")


def singleton(v):
    """Fuzzify a crisp value as the degenerate set (v, v, v)."""
    v = float(_finite_real(v, "value to fuzzify"))
    return TriangularFuzzySet(v, v, v)


def representative(s):
    """Crisp representative of a set: the mean of its three vertices."""
    return (s.a1 + s.a2 + s.a3) / 3.0


def distance_factor(d, params):
    """Sigmoid discount for the distance d between two sets.

    Returns a value in [0, 1), strictly decreasing in d until it reaches
    0. Evaluated as 1 / (1 + exp(h*d - omega)), which stays monotone in
    floating point far into the tail.
    """
    if not (isinstance(d, (int, float)) and math.isfinite(d)) or d < 0:
        raise InvalidInputError(f"distance must be finite and >= 0, got {d!r}")
    x = params.h * d - params.omega
    try:
        return 1.0 / (1.0 + math.exp(x))
    except OverflowError:
        # exp(x) exceeds the float range once x > ~709.78, where the true
        # value is below 6e-309; 0.0 is also what 1 / (1 + inf) gives
        return 0.0


def similarity(a, b, params):
    """Matching degree of two triangular sets, in [0, 1].

    The shape term 1 - (sum of vertex gaps)/3 is clipped at 0 so inputs
    slightly outside the normalized training range cannot push the result
    negative; it is then discounted by distance_factor of the gap between
    the set representatives. Symmetric in its two set arguments, and equal
    to distance_factor(0, params) when the sets coincide.
    """
    shape = 1.0 - (abs(a.a1 - b.a1) + abs(a.a2 - b.a2) + abs(a.a3 - b.a3)) / 3.0
    if shape <= 0.0:
        return 0.0
    d = abs(representative(a) - representative(b))
    s = shape * distance_factor(d, params)
    return min(1.0, max(0.0, s))


def firing_degree(per_dim_similarities):
    """Rule activation: minimum matching degree across input dimensions."""
    sims = list(per_dim_similarities)
    if not sims:
        raise InvalidInputError("firing degree of an empty similarity vector")
    return min(sims)


def aggregate(firings, consequents):
    """Firing-weighted mean of the rule consequents.

    Raises ZeroFiringError when no rule fired (total weight zero); callers
    that can fall back to a nearest rule handle that case themselves.
    """
    firings = list(firings)
    consequents = list(consequents)
    if not firings or len(firings) != len(consequents):
        raise InvalidInputError(
            f"need equal-length non-empty firing/consequent vectors, got "
            f"{len(firings)} and {len(consequents)}"
        )
    total = sum(firings)
    if total <= 0.0:
        raise ZeroFiringError("total firing degree is zero")
    return sum(t * g for t, g in zip(firings, consequents)) / total
