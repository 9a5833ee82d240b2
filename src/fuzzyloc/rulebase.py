"""Cluster-to-rule extraction and the rule-base document format.

Each cluster of training instances becomes one rule: per selected feature
the antecedent triangle spans (cluster min, cluster mean, cluster max) in
normalized units, and the consequent is the cluster's class label (or the
mean of member labels under the global-mean strategy).
"""

import json
import math
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, starmap
from typing import NamedTuple, Optional

import numpy as np

# elbow_k and kmeans are not called here; they stay importable as
# fuzzyloc.rulebase.elbow_k and fuzzyloc.rulebase.kmeans
from .clustering import elbow_fits, elbow_k, kmeans  # noqa: F401
from .data import Normalization, label_universe as universe_of, write_text
from .errors import (
    ConfigError, InvalidInputError, RuleBaseFormatError, RuleBaseVersionError, prefixed,
)
from .fuzzy import (
    INT64_MAX, SimilarityParams, TriangularFuzzySet, _finite_real, _integer, _integers, _seed,
    vertex_means,
)

FORMAT_VERSION = 1
PER_CLASS = "per-class"
GLOBAL_MEAN = "global-mean"
STRATEGIES = (PER_CLASS, GLOBAL_MEAN)

DEFAULT_K_MAX = 10


@dataclass(frozen=True)
class Rule:
    """One fuzzy rule: antecedent triangle per selected feature, crisp consequent."""

    antecedents: tuple  # TriangularFuzzySet per selected feature
    consequent: float
    support_count: int  # cluster size, diagnostics only

    def __post_init__(self):
        object.__setattr__(self, "antecedents", tuple(self.antecedents))
        object.__setattr__(self, "consequent", float(_finite_real(self.consequent, "consequent")))
        support_count = _integer(self.support_count, "support_count", 1, INT64_MAX)
        object.__setattr__(self, "support_count", support_count)
        if not self.antecedents:
            raise InvalidInputError("rule needs at least one antecedent")


class Serving(NamedTuple):
    """RuleBase.serving, read-only arrays built once per rule base.

    selected holds the selected feature indices (D,), None when every
    feature is selected in order, and constant the normalization's mask of
    constant features (F,), None when there are none, as
    Normalization._arrays holds it. labels (n,) is the label universe as
    int64, and thresholds (n - 1,) holds, for each label past the first,
    the smallest float64 gamma that discretize sends to that label or
    beyond (see _thresholds), so labels[thresholds.searchsorted(gamma,
    side="right")] is discretize's label for every finite gamma.
    """

    selected: Optional[np.ndarray]
    constant: Optional[np.ndarray]
    labels: np.ndarray
    thresholds: np.ndarray


def _thresholds(labels):
    """Serving.thresholds of an ascending int64 label universe: for each
    pair of neighbouring labels, the smallest float64 gamma whose
    discretize label is the upper one or beyond.

    discretize is non-decreasing in gamma. Between the two labels it
    compares gamma - below with above - gamma in float64, the labels
    rounded to float64, so its answer flips once in the pair's bracket:
    the floats from just above the lower label to just above the upper
    one, where the label is the upper one or beyond. The candidate is the
    float just above the rounded midpoint, clipped into the bracket; where
    rounding moves the flip off it, the flip is bisected over the
    bracket's floats in order. Two labels beyond 2**53 with no float
    between them share a threshold: the upper one is never reached.
    """
    rounded = labels.astype(float)
    floors = rounded  # exact up to 2**53
    if labels[0] < -2**53 or labels[-1] > 2**53:
        # the largest float64 at or below each label; a float compares with an
        # int exactly, and the float nearest a label beyond 2**53 may lie above it
        floors = np.array([
            f if f <= u else math.nextafter(f, -math.inf) for u, f in zip(labels.tolist(), rounded.tolist())
        ])
    floor, below, above = floors[:-1], rounded[:-1], rounded[1:]
    stop = np.nextafter(floors[1:], math.inf)

    def flipped(g, at=slice(None)):
        """Whether discretize(g) is each pair's upper label or beyond, for g
        from the pair's floor up to its stop."""
        return (g >= stop[at]) | ((g > floor[at]) & (g - below[at] > above[at] - g))

    cut = np.nextafter((below + above) / 2, math.inf)
    cut = np.minimum(np.maximum(cut, np.nextafter(floor, math.inf)), stop)
    (missed,) = np.nonzero(~flipped(cut) | flipped(np.nextafter(cut, -math.inf)))
    if missed.size:
        # floats as int64 keys in float order; the map is its own inverse
        def ordered(bits):
            return bits ^ ((bits >> 63) & np.int64(INT64_MAX))

        lo, hi = ordered(floor[missed].view(np.int64)), ordered(stop[missed].view(np.int64))
        while True:  # not flipped at lo, flipped at hi
            # as uint64: hi - lo overflows int64 where the bracket spans zero
            gap = hi.view(np.uint64) - lo.view(np.uint64)
            if not (gap > 1).any():
                break
            mid = lo + (gap >> np.uint64(1)).view(np.int64)
            up = flipped(ordered(mid).view(float), missed)
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        cut[missed] = ordered(hi).view(float)
    return cut


def _floats(values):
    """values as float64; NaN stands for each one _finite_real refuses."""
    if set(map(type, values)) <= {int, float}:
        with suppress(OverflowError):  # an int beyond the float range
            return np.array(values, dtype=float)
    return np.array([_checked(_finite_real, v, math.nan) for v in values], dtype=float)


def _counts(values):
    """values as int64; a value below 1 stands for each one Rule refuses as
    a support count."""
    if set(map(type, values)) <= {int}:
        with suppress(OverflowError):  # an int beyond int64
            return np.array(values, dtype=np.int64)
    return np.array([_checked(_integer, v, 0, 1, INT64_MAX) for v in values], dtype=np.int64)


def _checked(check, value, mark, *bounds):
    """check(value, "value", *bounds), or mark for a value check refuses."""
    with suppress(InvalidInputError):
        return check(value, "value", *bounds)
    return mark


def _at(path, make, *args):
    """make(*args), an InvalidInputError prefixed with the field path."""
    with prefixed(path, InvalidInputError):
        return make(*args)


def _triangle(triple):
    """TriangularFuzzySet(*triple) for a triple of exactly three values."""
    if len(triple) != 3:
        raise InvalidInputError(f"a triangle needs 3 values (a1, a2, a3), got {len(triple)}")
    return TriangularFuzzySet(*triple)


def _check_indices(selected_features, n_features):
    """selected_features as _integers in 0..n_features - 1; an empty
    selection is refused."""
    selected = _integers(selected_features, "selected_features", 0, n_features - 1)
    if not selected:
        raise InvalidInputError("selected_features must be non-empty")
    return selected


def _name_fault(i, triples, consequent, support, arity, lowest, highest):
    """Raise for faulty rule i what building it from TriangularFuzzySet and
    Rule meets first, else what the rule base's own checks found."""
    sets = [_at(f"rules[{i}].antecedents[{j}]", _triangle, t) for j, t in enumerate(triples)]
    rule = _at(f"rules[{i}]", Rule, sets, consequent, support)
    if len(sets) != arity:
        raise InvalidInputError(f"rules[{i}]: {len(sets)} antecedents, expected {arity}")
    if not lowest <= rule.consequent <= highest:
        raise InvalidInputError(
            f"rules[{i}]: consequent {rule.consequent!r} lies outside the label universe "
            f"[{lowest}, {highest}]"
        )
    raise InvalidInputError(f"rules[{i}]: a vertex mean is beyond the float range")


@dataclass(frozen=True, init=False, eq=False)
class RuleBase:
    """Sparse rule base plus everything needed to reproduce its inputs.

    The rules are three read-only arrays: antecedents (R, D, 3), one
    (a1, a2, a3) per rule and selected feature, consequents (R,) and
    supports (R,), the cluster sizes (diagnostics only). They are given
    as nested sequences or arrays (an array is read as its nested lists),
    or as rules, a sequence of Rule, and checked all at once, whatever
    the source, as Rule and TriangularFuzzySet check them; an error names
    the first faulty rule in order. representatives (R, D) are the
    vertex means; rules reads the arrays back as Rules.

    feature_names (distinct str) / normalization describe the original
    (pre-selection) feature space; selected_features are integer indices
    into it, and every rule has one antecedent per selected feature.
    label_universe lists all labels the deployment may emit, including
    ones never seen in training; they fit in 64 bits, and every consequent
    lies within their span. seed is a _seed, in 0..INT64_MAX.
    """

    antecedents: np.ndarray
    consequents: np.ndarray
    supports: np.ndarray
    params: SimilarityParams
    feature_names: tuple
    normalization: Normalization
    selected_features: tuple
    label_universe: tuple
    consequent_strategy: str
    seed: int

    def __init__(
        self, *, antecedents=None, consequents=None, supports=None, rules=None, params,
        feature_names, normalization, selected_features, label_universe,
        consequent_strategy, seed,
    ):
        if rules is not None:
            rules = tuple(rules)
            antecedents = [[(a.a1, a.a2, a.a3) for a in rule.antecedents] for rule in rules]
            consequents = [rule.consequent for rule in rules]
            supports = [rule.support_count for rule in rules]
        # one intake: an array is read as the nested lists a document holds
        antecedents, consequents, supports = (
            v.tolist() if isinstance(v, np.ndarray) else v
            for v in (antecedents, consequents, supports)
        )
        for name, value in dict(
            params=params, feature_names=tuple(feature_names), normalization=normalization,
            selected_features=_integers(selected_features, "selected_features"),
            label_universe=universe_of((), label_universe),
            consequent_strategy=consequent_strategy, seed=_seed(seed),
        ).items():
            object.__setattr__(self, name, value)
        if len(self.feature_names) != self.normalization.n_features:
            raise InvalidInputError("feature names and normalization table disagree")
        for i, name in enumerate(self.feature_names):
            if not isinstance(name, str):
                raise InvalidInputError(f"feature_names[{i}] must be a str, got {name!r}")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise InvalidInputError("feature_names contains duplicates")
        _check_indices(self.selected_features, len(self.feature_names))
        if len(set(self.selected_features)) != len(self.selected_features):
            raise InvalidInputError("selected_features contains duplicates")
        lowest, highest = self.label_universe[0], self.label_universe[-1]
        if self.consequent_strategy not in STRATEGIES:
            raise InvalidInputError(f"unknown consequent strategy {self.consequent_strategy!r}")
        arity = len(self.selected_features)
        try:  # a triple of other than 3 values reads as NaNs, which mark its rule
            counts = np.array(list(map(len, antecedents)), dtype=int)
            flat = list(chain.from_iterable(antecedents))
            if not set(map(len, flat)) <= {3}:
                flat = [t if len(t) == 3 else (math.nan,) * 3 for t in flat]
            triples = _floats(list(chain.from_iterable(flat))).reshape(-1, 3)
            cons, sups = _floats(consequents), _counts(supports)
        except TypeError as exc:  # a lone value where a sequence belongs
            raise InvalidInputError(f"antecedents, consequents and supports disagree in shape: {exc}")
        if not len(counts) == len(cons) == len(sups):
            raise InvalidInputError("antecedents, consequents and supports disagree in shape")
        if not len(cons):
            raise InvalidInputError("rule base must contain at least one rule")
        with np.errstate(over="ignore"):
            reps = vertex_means(triples)
        # consequents are labels or means of labels; with finite vertex means
        # this keeps every sum of inference within the float range
        bad = ~((cons >= lowest) & (cons <= highest)) | (sups < 1) | (counts != arity)
        ordered = (triples[:, 0] <= triples[:, 1]) & (triples[:, 1] <= triples[:, 2])
        bad[np.repeat(np.arange(len(counts)), counts)[~(ordered & np.isfinite(reps))]] = True
        if bad.any():
            i = int(bad.argmax())
            _name_fault(i, antecedents[i], consequents[i], supports[i], arity, lowest, highest)
        arrays = triples.reshape(-1, arity, 3), cons, sups, reps.reshape(-1, arity)
        for name, array in zip(("antecedents", "consequents", "supports", "representatives"), arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if type(other) is not RuleBase:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def n_rules(self):
        return len(self.consequents)

    @cached_property
    def planes(self):
        """a1, a2, a3 and the vertex mean of every antecedent as one read-only
        (4, D, R) array, built on first use for the firing kernel; when D > R
        the last two axes swap to (4, R, D), so the longer one is innermost.
        It is derived from the arrays: never serialized, no part of equality."""
        planes = np.concatenate([self.antecedents, self.representatives[..., None]], axis=2).T
        if planes.shape[1] > planes.shape[2]:
            planes = planes.swapaxes(1, 2)
        planes = np.ascontiguousarray(planes)
        planes.flags.writeable = False
        return planes

    @cached_property
    def serving(self):
        """The Serving arrays every prediction call reads beside planes and
        the normalization's own, built on first use: derived like planes,
        never serialized, no part of equality."""
        labels = np.array(self.label_universe, dtype=np.int64)
        selected = None
        if self.selected_features != tuple(range(len(self.feature_names))):
            selected = np.array(self.selected_features, dtype=np.intp)
        serving = Serving(selected, self.normalization._arrays[2], labels, _thresholds(labels))
        for array in (selected, labels, serving.thresholds):
            if array is not None:
                array.flags.writeable = False
        return serving

    @cached_property
    def rules(self):
        """The rules as a tuple of Rule, read from the arrays on first use."""
        antecedents = [tuple(starmap(TriangularFuzzySet, t)) for t in self.antecedents.tolist()]
        return tuple(map(Rule, antecedents, self.consequents.tolist(), self.supports.tolist()))


def extract_rules(
    dataset,
    selected_features=None,
    strategy=PER_CLASS,
    seed=0,
    params=None,
    k_max=DEFAULT_K_MAX,
    label_universe=None,
):
    """Build a rule base from a normalized training dataset.

    strategy "per-class" clusters every class separately so each rule's
    consequent is an actual training label; "global-mean" clusters the
    whole dataset and uses the mean member label as the (real-valued)
    consequent. Each class (or the whole set) is clustered by elbow_fit with
    k_max capped at its size, so a class of fewer than 3 instances forms a
    single cluster: a sweep of one or two k has its knee at k = 1. Every
    class is swept in one elbow_fits call; each non-empty cluster of a
    class's knee fit becomes one rule.
    label_universe defaults to the contiguous integer range spanning the
    training labels; pass it explicitly when held-out labels must be
    predictable.
    """
    if dataset.n_instances == 0:
        raise InvalidInputError("cannot extract rules from an empty dataset")
    if dataset.normalization is None:
        raise InvalidInputError("rule extraction requires a min-max normalized dataset")
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown consequent strategy {strategy!r}")
    k_max = _integer(k_max, "k_max", 1, INT64_MAX)
    if params is None:
        params = SimilarityParams()
    seed = _seed(seed)

    if selected_features is None:
        selected_features = tuple(range(dataset.n_features))
    selected_features = _check_indices(selected_features, dataset.n_features)

    labels = dataset.labels
    classes = sorted(set(labels.tolist()))
    label_universe = universe_of(classes, label_universe)

    if strategy == PER_CLASS:
        groups = [(labels == c, c) for c in classes]
    else:
        groups = [(slice(None), None)]
    group_points = [dataset.features[subset][:, selected_features] for subset, _ in groups]
    fits = elbow_fits(group_points, k_max, seed)
    antecedents, consequents, supports = [], [], []
    for (subset, label), group, (k, fit) in zip(groups, group_points, fits):
        # a stable sort keeps each cluster's points in point order
        order = np.argsort(fit.assignment, kind="stable")
        cuts = np.cumsum(np.bincount(fit.assignment, minlength=k))[:-1]
        for block, rows in zip(np.split(group[order], cuts), np.split(order, cuts)):
            if not len(rows):
                continue
            # a contiguous row per feature reduces as its lone column would
            members = np.ascontiguousarray(block.T)
            lo, hi = members.min(axis=1), members.max(axis=1)
            # the mean of equal values can round an ulp past them
            antecedents.append((lo, np.clip(members.mean(axis=1), lo, hi), hi))
            if label is None:
                consequents.append(labels[subset][rows].astype(float).mean())
            else:
                consequents.append(label)
            supports.append(len(rows))

    return RuleBase(
        antecedents=np.array(antecedents).swapaxes(1, 2),
        consequents=np.array(consequents, dtype=float),
        supports=supports,
        params=params,
        feature_names=dataset.feature_names,
        normalization=dataset.normalization,
        selected_features=selected_features,
        label_universe=label_universe,
        consequent_strategy=strategy,
        seed=seed,
    )


def serialize_rulebase(rb):
    """Render a rule base as a JSON document (UTF-8 text, trailing newline).

    Numbers round-trip exactly: floats are written in their shortest
    form that parses back to the same binary64 value. The text is byte
    for byte json.dumps(doc, indent=2) + "\n"; the stdlib's encoder is
    pure Python once it indents, so only the fields before "rules" go
    through it, and each rule is written by one %-template.
    """
    head = {
        "format_version": FORMAT_VERSION,
        "similarity_params": {"h": rb.params.h, "omega": rb.params.omega},
        "normalization": [
            {"name": name, "min": lo, "max": hi}
            for name, lo, hi in zip(rb.feature_names, rb.normalization.mins, rb.normalization.maxs)
        ],
        "selected_features": list(rb.selected_features),
        "consequent_strategy": rb.consequent_strategy,
        "label_universe": list(rb.label_universe),
        "seed": rb.seed,
    }
    triple = "        [\n" + ",\n".join(["          %r"] * 3) + "\n        ]"
    rule = (
        '    {\n      "antecedents": [\n' + ",\n".join([triple] * len(rb.selected_features))
        + '\n      ],\n      "consequent": %r,\n      "support_count": %d\n    }'
    )
    rules = ",\n".join(
        rule % (*vertices, consequent, support)
        for vertices, consequent, support in zip(
            rb.antecedents.reshape(rb.n_rules, -1).tolist(),
            rb.consequents.tolist(),
            rb.supports.tolist(),
        )
    )
    # a rule base holds at least one rule, so "rules" is never []
    return json.dumps(head, indent=2)[:-2] + f',\n  "rules": [\n{rules}\n  ]\n}}\n'


def _field(doc, key, context, kind=None):
    """doc[key], of the JSON type kind if one is given (JSON true and false
    parse as bool, which is not int)."""
    if not isinstance(doc, dict):
        raise RuleBaseFormatError(f"{context} must be an object")
    if key not in doc:
        raise RuleBaseFormatError(f"{context}: missing field {key!r}")
    if kind is not None and type(doc[key]) is not kind:
        raise RuleBaseFormatError(f"{context}: field {key!r} has type {type(doc[key]).__name__}")
    return doc[key]


def deserialize_rulebase(text):
    """Parse a rule-base document: its shape is checked here, and every
    value by RuleBase; an error names the field's path, such as
    rules[3].antecedents[1]."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuleBaseFormatError(
            f"rule-base document is not valid JSON: {exc.msg} "
            f"(line {exc.lineno} column {exc.colno}, char {exc.pos})"
        ) from exc
    except ValueError as exc:  # an integer of more digits than int() converts
        raise RuleBaseFormatError(f"rule-base document holds a number it cannot read: {exc}") from None
    version = _field(doc, "format_version", "rule base", int)
    if version != FORMAT_VERSION:
        raise RuleBaseVersionError(
            f"unsupported rule-base format version {version} (expected {FORMAT_VERSION})"
        )
    params_doc = _field(doc, "similarity_params", "rule base", dict)
    norm_list = _field(doc, "normalization", "rule base", list)
    norm_doc = [(entry, f"normalization[{i}]") for i, entry in enumerate(norm_list)]
    rules = _field(doc, "rules", "rule base", list)
    try:
        antecedents = [rule["antecedents"] for rule in rules]
        consequents = [rule["consequent"] for rule in rules]
        supports = [rule["support_count"] for rule in rules]
        shaped = (set(map(type, rules)) <= {dict} and set(map(type, antecedents)) <= {list}
                  and set(map(type, chain.from_iterable(antecedents))) <= {list})
    except (KeyError, TypeError):
        shaped = False
    if not shaped:  # the checks rule by rule word the refusal
        for i, entry in enumerate(rules):
            path = f"rules[{i}]"
            triples = _field(entry, "antecedents", path, list)
            if not set(map(type, triples)) <= {list}:
                j = next(j for j, t in enumerate(triples) if type(t) is not list)
                raise RuleBaseFormatError(f"{path}.antecedents[{j}] must be [a1, a2, a3]")
            _field(entry, "consequent", path)
            _field(entry, "support_count", path)
    violation = "rule-base document violates an invariant"
    with prefixed(violation, (InvalidInputError, TypeError, ValueError), RuleBaseFormatError):
        return RuleBase(
            antecedents=antecedents,
            consequents=consequents,
            supports=supports,
            params=_at("similarity_params", SimilarityParams, *(
                _field(params_doc, key, "similarity_params") for key in ("h", "omega")
            )),
            feature_names=tuple(_field(entry, "name", path) for entry, path in norm_doc),
            normalization=Normalization(
                mins=tuple(_field(entry, "min", path) for entry, path in norm_doc),
                maxs=tuple(_field(entry, "max", path) for entry, path in norm_doc),
            ),
            selected_features=_field(doc, "selected_features", "rule base", list),
            label_universe=_field(doc, "label_universe", "rule base", list),
            consequent_strategy=_field(doc, "consequent_strategy", "rule base"),
            seed=_field(doc, "seed", "rule base"),
        )


def save_rulebase(rb, path):
    write_text(path, serialize_rulebase(rb))


def load_rulebase(path):
    """Parse a rule-base file; ConfigError when it cannot be opened."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise RuleBaseFormatError(f"rule base {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read rule base {path}: {exc.strerror or exc}") from exc
    return deserialize_rulebase(text)
