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
import operator
from dataclasses import dataclass
from functools import reduce

from .errors import InvalidInputError, ZeroFiringError

# the largest int64: supports and seeds are held as int64 (labels too, but
# data.LABEL_RANGE bounds them more narrowly)
INT64_MAX = 2**63 - 1


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
    if not finite:  # v is an int or a float, whose str() is its repr()
        raise InvalidInputError(f"non-finite {what}: {_shown(v)}")
    return v


def _integer(v, what, lo=None, hi=None):
    """v as an int in lo..hi, where a bound of None is open; raises
    InvalidInputError naming what.

    int passes unchanged (the common case, checked first); other integers,
    numpy integers among them, convert to int. bool is refused although it
    is an int, and so is every non-integer, an integral float included. A
    refusal reads "{what} must be >= {lo}, got {v}" (or "<= {hi}"), the
    value as _shown shows it.
    """
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise InvalidInputError(f"{what} must be an integer, got {type(v).__name__}")
        v = int(v)
    if lo is not None and v < lo:
        raise InvalidInputError(f"{what} must be >= {lo}, got {_shown(v)}")
    if hi is not None and v > hi:
        raise InvalidInputError(f"{what} must be <= {hi}, got {_shown(v)}")
    return v


def _integers(values, what, lo=None, hi=None):
    """A tuple of _integer of each value in lo..hi; the i-th is named what[i]."""
    return tuple(_integer(v, f"{what}[{i}]", lo, hi) for i, v in enumerate(values))


def _finite_reals(values, what, lo=None):
    """A list of _finite_real of each value, the i-th named what[i]; a
    value below lo, unless lo is None, is refused as _integer refuses it."""
    reals = []
    for i, v in enumerate(values):
        v = _finite_real(v, f"{what}[{i}]")
        if lo is not None and v < lo:
            raise InvalidInputError(f"{what}[{i}] must be >= {lo}, got {_shown(v)}")
        reals.append(v)
    return reals


def _shown(v):
    """v as a message shows it: an int beyond 64 bits, which str() may
    refuse to format, as the words "an integer beyond 64 bits"."""
    return "an integer beyond 64 bits" if isinstance(v, int) and v.bit_length() > 64 else v


def _seed(v):
    """v as a seed: an _integer in 0..INT64_MAX, a non-negative int64."""
    return _integer(v, "seed", 0, INT64_MAX)


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
        h = float(_finite_real(self.h, "sensitivity factor h"))
        if not h > 0:
            raise InvalidInputError(f"sensitivity factor h must be > 0, got {h!r}")
        omega = float(_finite_real(self.omega, "offset omega"))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "omega", omega)


def singleton(v):
    """Fuzzify a crisp value as the degenerate set (v, v, v)."""
    v = float(_finite_real(v, "value to fuzzify"))
    return TriangularFuzzySet(v, v, v)


def _fuzzy_set(s, what):
    """s if it is a TriangularFuzzySet; raises InvalidInputError naming what."""
    if not isinstance(s, TriangularFuzzySet):
        raise InvalidInputError(f"{what} is not a TriangularFuzzySet (type {type(s).__name__})")
    return s


def _params(params):
    """params if it is a SimilarityParams; raises InvalidInputError."""
    if not isinstance(params, SimilarityParams):
        raise InvalidInputError(f"params is not a SimilarityParams (type {type(params).__name__})")
    return params


def representative(s):
    """Crisp representative of a set: the mean of its three vertices."""
    s = _fuzzy_set(s, "s")
    return (s.a1 + s.a2 + s.a3) / 3.0


def vertex_means(vertices):
    """representative of every set in an array whose last axis holds
    (a1, a2, a3), summed in the same order so the bits agree."""
    return (vertices[..., 0] + vertices[..., 1] + vertices[..., 2]) / 3.0


def distance_factor(d, params):
    """Sigmoid discount for the distance d between two sets.

    Returns a value in [0, 1), strictly decreasing in d until it reaches
    0. Evaluated as 1 / (1 + exp(h*d - omega)), which stays monotone in
    floating point far into the tail.
    """
    d, params = _finite_real(d, "distance"), _params(params)
    if d < 0:
        raise InvalidInputError(f"distance must be >= 0, got {d!r}")
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
    the set representatives. A shape term in (0, 1] times a factor in
    [0, 1] stays in [0, 1], so the product needs no clip. Symmetric in its
    two set arguments, and equal to distance_factor(0, params) when the
    sets coincide.
    """
    a, b, params = _fuzzy_set(a, "a"), _fuzzy_set(b, "b"), _params(params)
    shape = 1.0 - (abs(a.a1 - b.a1) + abs(a.a2 - b.a2) + abs(a.a3 - b.a3)) / 3.0
    if shape <= 0.0:  # also keeps a gap that overflows to inf from distance_factor
        return 0.0
    d = abs(representative(a) - representative(b))
    if not math.isfinite(d):  # shape > 0 keeps the means within 3, so one overflowed
        name, s = ("a", a) if not math.isfinite(representative(a)) else ("b", b)
        raise InvalidInputError(
            f"{name}: the vertex mean of ({s.a1}, {s.a2}, {s.a3}) is beyond the float range"
        )
    return shape * distance_factor(d, params)


def firing_degree(per_dim_similarities):
    """Rule activation: minimum matching degree across input dimensions."""
    sims = _finite_reals(per_dim_similarities, "per_dim_similarities")
    if not sims:
        raise InvalidInputError("firing degree of an empty similarity vector")
    return min(sims)


def aggregate(firings, consequents):
    """Firing-weighted mean of the rule consequents.

    Both sums run left to right from their first term, the order of the
    prediction kernel's np.add.accumulate, so the bits do not depend on
    the interpreter's sum(). Raises ZeroFiringError when no rule fired
    (total weight zero); callers that can fall back to a nearest rule
    handle that case themselves. Every firing and consequent must be a
    finite real, and every firing >= 0 (a weight above 1 is allowed); a
    total or weighted sum beyond the float range is refused.
    """
    firings = _finite_reals(firings, "firings", lo=0)
    consequents = _finite_reals(consequents, "consequents")
    if not firings or len(firings) != len(consequents):
        raise InvalidInputError("need equal-length non-empty firing/consequent vectors, got "
                                f"{len(firings)} and {len(consequents)}")
    total = reduce(operator.add, firings)
    if total <= 0.0:
        raise ZeroFiringError("total firing degree is zero")
    weighted = reduce(operator.add, map(operator.mul, firings, consequents))
    for what, value in (("total firing degree", total), ("firing-weighted sum", weighted)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{what} overflows the float range")
    return weighted / total
