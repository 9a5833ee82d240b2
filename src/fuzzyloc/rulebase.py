"""Cluster-to-rule extraction and the rule-base document format.

Each cluster of training instances becomes one rule: per selected feature
the antecedent triangle spans (cluster min, cluster mean, cluster max) in
normalized units, and the consequent is the cluster's class label (or the
mean of member labels under the global-mean strategy).
"""

import json
from dataclasses import dataclass

import numpy as np

# elbow_k and kmeans are not called here; they stay importable as
# fuzzyloc.rulebase.elbow_k and fuzzyloc.rulebase.kmeans
from .clustering import elbow_fit, elbow_k, kmeans  # noqa: F401
from .data import LABEL_RANGE, Normalization
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


@dataclass(frozen=True)
class RuleBase:
    """Sparse rule base plus everything needed to reproduce its inputs.

    feature_names / normalization describe the original (pre-selection)
    feature space; selected_features are indices into it, and every rule
    has one antecedent per selected feature. label_universe lists all
    labels the deployment may emit, including ones never seen in training;
    they fit in 64 bits, and every consequent lies within their span.

    Construction also stores the rules as read-only float64 arrays for
    inference (not fields: they do not take part in equality or the
    document format): antecedents of shape (R, D, 3), consequents of
    shape (R,) and representatives, the vertex means, of shape (R, D).
    """

    rules: tuple
    params: SimilarityParams
    feature_names: tuple
    normalization: Normalization
    selected_features: tuple
    label_universe: tuple
    consequent_strategy: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "selected_features", tuple(int(i) for i in self.selected_features))
        object.__setattr__(self, "label_universe", tuple(int(v) for v in self.label_universe))
        if not self.rules:
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
        if not self.label_universe:
            raise InvalidInputError("label_universe must be non-empty")
        if any(b <= a for a, b in zip(self.label_universe, self.label_universe[1:])):
            raise InvalidInputError("label_universe must be strictly increasing")
        lowest, highest = self.label_universe[0], self.label_universe[-1]
        if lowest not in LABEL_RANGE or highest not in LABEL_RANGE:
            raise InvalidInputError("label_universe entries must fit in a 64-bit integer")
        if self.consequent_strategy not in STRATEGIES:
            raise InvalidInputError(f"unknown consequent strategy {self.consequent_strategy!r}")
        arity = len(self.selected_features)
        for idx, rule in enumerate(self.rules):
            if len(rule.antecedents) != arity:
                raise InvalidInputError(
                    f"rule {idx} has {len(rule.antecedents)} antecedents, expected {arity}"
                )
        antecedents = np.array(
            [[(a.a1, a.a2, a.a3) for a in rule.antecedents] for rule in self.rules], dtype=float
        )
        with np.errstate(over="ignore"):
            representatives = vertex_means(antecedents)
        consequents = np.array([rule.consequent for rule in self.rules], dtype=float)
        # consequents are labels or means of labels; with finite vertex means
        # this keeps every sum of inference within the float range
        bad = (consequents < lowest) | (consequents > highest)
        bad |= ~np.isfinite(representatives).all(axis=1)
        if bad.any():
            raise InvalidInputError(
                f"rule {bad.argmax()} has a consequent outside the label universe "
                f"[{lowest}, {highest}] or a vertex mean beyond the float range"
            )
        for name, array in (
            ("antecedents", antecedents),
            ("representatives", representatives),
            ("consequents", consequents),
        ):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_rules(self):
        return len(self.rules)


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


def _rule_from_members(members, consequent):
    antecedents = tuple(
        TriangularFuzzySet(float(col.min()), float(col.mean()), float(col.max()))
        for col in members.T
    )
    return Rule(antecedents=antecedents, consequent=consequent, support_count=len(members))


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
    if label_universe is None:
        label_universe = tuple(range(int(labels.min()), int(labels.max()) + 1))
    else:
        label_universe = tuple(int(v) for v in label_universe)
    missing = sorted(set(int(v) for v in labels) - set(label_universe))
    if missing:
        raise InvalidInputError(f"label_universe does not cover training labels {missing}")

    points = dataset.features[:, selected_features]
    if strategy == PER_CLASS:
        groups = [(labels == c, c) for c in sorted(set(int(v) for v in labels))]
    else:
        groups = [(slice(None), None)]
    rules = []
    for subset, label in groups:
        group_points, group_labels = points[subset], labels[subset]
        for mask in _cluster_rules(group_points, seed, k_max):
            if label is None:
                consequent = group_labels[mask].astype(float).mean()
            else:
                consequent = label
            rules.append(_rule_from_members(group_points[mask], consequent))

    return RuleBase(
        rules=tuple(rules),
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
            {
                "antecedents": [[a.a1, a.a2, a.a3] for a in rule.antecedents],
                "consequent": rule.consequent,
                "support_count": rule.support_count,
            }
            for rule in rb.rules
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


def _at(path, make, *args):
    """make(*args), an InvalidInputError prefixed with the field path."""
    try:
        return make(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _rule(entry, path):
    antecedents = []
    for j, triple in enumerate(_field(entry, "antecedents", path, list)):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise RuleBaseFormatError(f"{path}.antecedents[{j}] must be [a1, a2, a3]")
        try:
            fuzzy_set = TriangularFuzzySet(*triple)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}.antecedents[{j}]: {exc}") from None
        if int in map(type, triple):  # cast once checked, so re-saving writes floats
            fuzzy_set = TriangularFuzzySet(*map(float, triple))
        antecedents.append(fuzzy_set)
    consequent = _field(entry, "consequent", path)
    support = _field(entry, "support_count", path, int)
    return _at(path, Rule, antecedents, consequent, support)


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
    rules_doc = _field(doc, "rules", "rule base", list)
    try:
        return RuleBase(
            rules=tuple(_rule(entry, f"rules[{i}]") for i, entry in enumerate(rules_doc)),
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
