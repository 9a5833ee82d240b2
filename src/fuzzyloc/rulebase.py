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

import numpy as np

# elbow_k and kmeans are not called here; they stay importable as
# fuzzyloc.rulebase.elbow_k and fuzzyloc.rulebase.kmeans
from .clustering import elbow_fit, elbow_k, kmeans  # noqa: F401
from .data import Normalization, label_universe as universe_of
from .errors import ConfigError, InvalidInputError, RuleBaseFormatError, RuleBaseVersionError
from .fuzzy import SimilarityParams, TriangularFuzzySet, _finite_real, vertex_means

FORMAT_VERSION = 1
PER_CLASS = "per-class"
GLOBAL_MEAN = "global-mean"
STRATEGIES = (PER_CLASS, GLOBAL_MEAN)

DEFAULT_K_MAX = 10
DEFAULT_RESTARTS = 5


@dataclass(frozen=True)
class Rule:
    """One fuzzy rule: antecedent triangle per selected feature, crisp consequent."""

    antecedents: tuple  # TriangularFuzzySet per selected feature
    consequent: float
    support_count: int  # cluster size, diagnostics only

    def __post_init__(self):
        object.__setattr__(self, "antecedents", tuple(self.antecedents))
        object.__setattr__(self, "consequent", float(_finite_real(self.consequent, "consequent")))
        if not self.antecedents:
            raise InvalidInputError("rule needs at least one antecedent")
        if self.support_count < 1:
            raise InvalidInputError(f"support_count must be >= 1, got {self.support_count}")


def _floats(values):
    """values as float64; NaN stands for each one _finite_real refuses."""
    if isinstance(values, np.ndarray) or set(map(type, values)) <= {int, float}:
        with suppress(OverflowError):  # an int beyond the float range
            return np.array(values, dtype=float)
    return np.array([_float_or_nan(v) for v in values], dtype=float)


def _float_or_nan(value):
    try:
        return float(_finite_real(value, "value"))
    except InvalidInputError:
        return math.nan


def _at(path, make, *args):
    """make(*args), an InvalidInputError prefixed with the field path."""
    try:
        return make(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _name_fault(i, triples, consequent, support, arity, lowest, highest):
    """Raise for faulty rule i what building it from TriangularFuzzySet and
    Rule meets first, else what the rule base's own checks found."""
    sets = [
        _at(f"rules[{i}].antecedents[{j}]", TriangularFuzzySet, *triple)
        for j, triple in enumerate(triples)
    ]
    _at(f"rules[{i}]", Rule, sets, consequent, support)
    if support >= 2**63:
        raise InvalidInputError(f"rules[{i}]: support_count must be < 2**63, got {support}")
    if len(sets) != arity:
        raise InvalidInputError(f"rule {i} has {len(sets)} antecedents, expected {arity}")
    raise InvalidInputError(
        f"rule {i} has a consequent outside the label universe "
        f"[{lowest}, {highest}] or a vertex mean beyond the float range"
    )


@dataclass(frozen=True, init=False, eq=False)
class RuleBase:
    """Sparse rule base plus everything needed to reproduce its inputs.

    The rules are three read-only arrays: antecedents (R, D, 3), one
    (a1, a2, a3) per rule and selected feature, consequents (R,) and
    supports (R,), the cluster sizes (diagnostics only). They are given
    as array-likes, or as rules, a sequence of Rule, and checked all at
    once; an error names the first faulty rule in order. representatives
    (R, D) are the vertex means; rules reads the arrays back as Rules.

    feature_names / normalization describe the original (pre-selection)
    feature space; selected_features are indices into it, and every rule
    has one antecedent per selected feature. label_universe lists all
    labels the deployment may emit, including ones never seen in training;
    they fit in 64 bits, and every consequent lies within their span.
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
        for name, value in dict(
            params=params, feature_names=tuple(feature_names), normalization=normalization,
            selected_features=tuple(int(i) for i in selected_features),
            label_universe=universe_of((), label_universe),
            consequent_strategy=consequent_strategy, seed=seed,
        ).items():
            object.__setattr__(self, name, value)
        if not len(consequents):
            raise InvalidInputError("rule base must contain at least one rule")
        if len(self.feature_names) != self.normalization.n_features:
            raise InvalidInputError("feature names and normalization table disagree")
        if not self.selected_features:
            raise InvalidInputError("selected_features must be non-empty")
        for i in self.selected_features:
            if not 0 <= i < len(self.feature_names):
                raise InvalidInputError(f"selected feature index {i} out of range")
        if len(set(self.selected_features)) != len(self.selected_features):
            raise InvalidInputError("selected_features contains duplicates")
        lowest, highest = self.label_universe[0], self.label_universe[-1]
        if self.consequent_strategy not in STRATEGIES:
            raise InvalidInputError(f"unknown consequent strategy {self.consequent_strategy!r}")
        arity = len(self.selected_features)
        counts = np.array(list(map(len, antecedents)), dtype=int)
        if isinstance(antecedents, np.ndarray):  # (R, D, 3), as extract_rules builds it
            values = antecedents.ravel()
        else:
            values = list(chain.from_iterable(chain.from_iterable(antecedents)))
        triples, cons = _floats(values), _floats(consequents)
        try:
            sups = np.array(supports, dtype=np.int64)
        except OverflowError:  # a count beyond 64 bits; 0 marks it as bad below
            sups = np.array([s if abs(s) < 2**63 else 0 for s in supports], dtype=np.int64)
        if not len(counts) == len(cons) == len(sups) or len(triples) != 3 * counts.sum():
            raise InvalidInputError("antecedents, consequents and supports disagree in shape")
        triples = triples.reshape(-1, 3)
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
    def rules(self):
        """The rules as a tuple of Rule, read from the arrays on first use."""
        antecedents = [tuple(starmap(TriangularFuzzySet, t)) for t in self.antecedents.tolist()]
        return tuple(map(Rule, antecedents, self.consequents.tolist(), self.supports.tolist()))


def _cluster_rules(points, seed, k_max):
    """Cluster one point set and yield a member mask per non-empty cluster."""
    n = len(points)
    effective_k_max = min(k_max, n)
    if n < 3 or effective_k_max < 2:
        yield np.ones(n, dtype=bool)
        return
    k, fit = elbow_fit(points, effective_k_max, seed, restarts=DEFAULT_RESTARTS)
    for c in range(k):
        mask = fit.assignment == c
        if mask.any():
            yield mask


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
    consequent. Classes with fewer than 3 instances form a single cluster.
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
    if k_max < 1:
        raise InvalidInputError(f"k_max must be >= 1, got {k_max}")
    if params is None:
        params = SimilarityParams()

    if selected_features is None:
        selected_features = tuple(range(dataset.n_features))
    selected_features = tuple(int(i) for i in selected_features)

    labels = dataset.labels
    label_universe = universe_of(labels.tolist(), label_universe)

    points = dataset.features[:, selected_features]
    if strategy == PER_CLASS:
        groups = [(labels == c, c) for c in sorted(set(int(v) for v in labels))]
    else:
        groups = [(slice(None), None)]
    antecedents, consequents, supports = [], [], []
    for subset, label in groups:
        group_points, group_labels = points[subset], labels[subset]
        for mask in _cluster_rules(group_points, seed, k_max):
            # a contiguous row per feature reduces as its lone column would
            members = np.ascontiguousarray(group_points[mask].T)
            antecedents.append((members.min(axis=1), members.mean(axis=1), members.max(axis=1)))
            if label is None:
                consequents.append(group_labels[mask].astype(float).mean())
            else:
                consequents.append(label)
            supports.append(members.shape[1])

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
        seed=int(seed),
    )


def serialize_rulebase(rb):
    """Render a rule base as a JSON document (UTF-8 text, trailing newline).

    Numbers round-trip exactly: floats are written in their shortest
    form that parses back to the same binary64 value.
    """
    doc = {
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
        "rules": [
            {"antecedents": triples, "consequent": consequent, "support_count": support}
            for triples, consequent, support in zip(
                rb.antecedents.tolist(), rb.consequents.tolist(), rb.supports.tolist()
            )
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _check_type(value, kinds, what):
    # JSON true/false parse as bool, a subclass of int; no field is boolean
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise RuleBaseFormatError(f"{what} has type {type(value).__name__}")
    return value


def _field(doc, key, context, kinds=object):
    if not isinstance(doc, dict):
        raise RuleBaseFormatError(f"{context} must be an object")
    if key not in doc:
        raise RuleBaseFormatError(f"{context}: missing field {key!r}")
    return _check_type(doc[key], kinds, f"{context}: field {key!r}")


def _ints(doc, key):
    values = _field(doc, key, "rule base", list)
    return tuple(_check_type(v, int, f"rule base: {key}[{i}]") for i, v in enumerate(values))


def deserialize_rulebase(text):
    """Parse a rule-base document, validating structure and invariants;
    an error names the field's path, such as rules[3].antecedents[1]."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuleBaseFormatError(
            f"rule-base document is not valid JSON: {exc.msg} "
            f"(line {exc.lineno} column {exc.colno}, char {exc.pos})"
        ) from exc
    version = _field(doc, "format_version", "rule base", int)
    if version != FORMAT_VERSION:
        raise RuleBaseVersionError(
            f"unsupported rule-base format version {version} (expected {FORMAT_VERSION})"
        )
    params_doc = _field(doc, "similarity_params", "rule base", dict)
    norm_list = _field(doc, "normalization", "rule base", list)
    norm_doc = [(entry, f"normalization[{i}]") for i, entry in enumerate(norm_list)]
    antecedents, consequents, supports = [], [], []
    for i, entry in enumerate(_field(doc, "rules", "rule base", list)):
        path = f"rules[{i}]"
        triples = _field(entry, "antecedents", path, list)
        if not (set(map(type, triples)) <= {list} and set(map(len, triples)) <= {3}):
            j = next(j for j, t in enumerate(triples) if type(t) is not list or len(t) != 3)
            raise RuleBaseFormatError(f"{path}.antecedents[{j}] must be [a1, a2, a3]")
        antecedents.append(triples)
        consequents.append(_field(entry, "consequent", path))
        supports.append(_field(entry, "support_count", path, int))
    try:
        return RuleBase(
            antecedents=antecedents,
            consequents=consequents,
            supports=supports,
            params=_at("similarity_params", SimilarityParams, *(
                _field(params_doc, key, "similarity_params") for key in ("h", "omega")
            )),
            feature_names=tuple(_field(entry, "name", path, str) for entry, path in norm_doc),
            normalization=Normalization(
                mins=tuple(_field(entry, "min", path) for entry, path in norm_doc),
                maxs=tuple(_field(entry, "max", path) for entry, path in norm_doc),
            ),
            selected_features=_ints(doc, "selected_features"),
            label_universe=_ints(doc, "label_universe"),
            consequent_strategy=_field(doc, "consequent_strategy", "rule base", str),
            seed=_field(doc, "seed", "rule base", int),
        )
    except (InvalidInputError, TypeError, ValueError) as exc:
        raise RuleBaseFormatError(f"rule-base document violates an invariant: {exc}") from exc


def save_rulebase(rb, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_rulebase(rb))


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
