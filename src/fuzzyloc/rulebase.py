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
from .data import Normalization
from .errors import (
    InvalidInputError,
    RuleBaseFormatError,
    RuleBaseVersionError,
)
from .fuzzy import SimilarityParams, TriangularFuzzySet

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
    labels the deployment may emit, including ones never seen in training.

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
        # summed in the order of fuzzy.representative, so the bits agree
        representatives = (antecedents[..., 0] + antecedents[..., 1] + antecedents[..., 2]) / 3.0
        consequents = np.array([rule.consequent for rule in self.rules], dtype=float)
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


def _cluster_rules(points, seed, k_max, restarts):
    """Cluster one point set and yield a member mask per non-empty cluster."""
    n = len(points)
    effective_k_max = min(k_max, n)
    if n < 3 or effective_k_max < 2:
        yield np.ones(n, dtype=bool)
        return
    k, fit = elbow_fit(points, effective_k_max, seed, restarts=restarts)
    for c in range(k):
        mask = fit.assignment == c
        if mask.any():
            yield mask


def _rule_from_members(members, consequent):
    antecedents = tuple(
        TriangularFuzzySet(float(col.min()), float(col.mean()), float(col.max()))
        for col in members.T
    )
    return Rule(antecedents=antecedents, consequent=float(consequent), support_count=len(members))


def extract_rules(
    dataset,
    selected_features=None,
    strategy=PER_CLASS,
    seed=0,
    params=None,
    k_max=DEFAULT_K_MAX,
    label_universe=None,
    restarts=DEFAULT_RESTARTS,
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
        for mask in _cluster_rules(group_points, seed, k_max, restarts):
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


# vertices are checked by exact type (json.loads yields exact int/float, and
# bool is no number here): the check runs for every vertex of every load
_JSON_NUMBERS = frozenset((int, float))


def _check_type(value, kinds, what):
    # JSON true/false parse as bool, a subclass of int; no field is boolean
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise RuleBaseFormatError(f"{what} has type {type(value).__name__}")
    return value


def _require(doc, key, kinds, context):
    if key not in doc:
        raise RuleBaseFormatError(f"{context}: missing field {key!r}")
    return _check_type(doc[key], kinds, f"{context}: field {key!r}")


def _require_list_of(doc, key, kinds, context):
    values = _require(doc, key, list, context)
    for i, value in enumerate(values):
        _check_type(value, kinds, f"{context}: {key}[{i}]")
    return values


def deserialize_rulebase(text):
    """Parse a rule-base document, validating structure and invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RuleBaseFormatError(
            f"rule-base document is not valid JSON: {exc.msg} "
            f"(line {exc.lineno} column {exc.colno}, char {exc.pos})"
        ) from exc
    if not isinstance(doc, dict):
        raise RuleBaseFormatError("rule-base document must be a JSON object")

    version = _require(doc, "format_version", int, "rule base")
    if version != FORMAT_VERSION:
        raise RuleBaseVersionError(
            f"unsupported rule-base format version {version} (expected {FORMAT_VERSION})"
        )

    params_doc = _require(doc, "similarity_params", dict, "rule base")
    norm_doc = _require(doc, "normalization", list, "rule base")
    rules_doc = _require(doc, "rules", list, "rule base")
    try:
        params = SimilarityParams(
            h=float(_require(params_doc, "h", (int, float), "similarity_params")),
            omega=float(_require(params_doc, "omega", (int, float), "similarity_params")),
        )
        names, mins, maxs = [], [], []
        for i, entry in enumerate(norm_doc):
            if not isinstance(entry, dict):
                raise RuleBaseFormatError(f"normalization[{i}] must be an object")
            names.append(str(_require(entry, "name", str, f"normalization[{i}]")))
            mins.append(float(_require(entry, "min", (int, float), f"normalization[{i}]")))
            maxs.append(float(_require(entry, "max", (int, float), f"normalization[{i}]")))
        rules = []
        for i, entry in enumerate(rules_doc):
            if not isinstance(entry, dict):
                raise RuleBaseFormatError(f"rules[{i}] must be an object")
            ants_doc = _require(entry, "antecedents", list, f"rules[{i}]")
            antecedents = []
            for j, triple in enumerate(ants_doc):
                if not (isinstance(triple, list) and len(triple) == 3):
                    raise RuleBaseFormatError(f"rules[{i}].antecedents[{j}] must be [a1, a2, a3]")
                if not _JSON_NUMBERS.issuperset(map(type, triple)):
                    kinds = sorted({type(v).__name__ for v in triple} - {"int", "float"})
                    raise RuleBaseFormatError(
                        f"rules[{i}].antecedents[{j}] has a vertex of type {kinds[0]}"
                    )
                antecedents.append(TriangularFuzzySet(*(float(v) for v in triple)))
            rules.append(
                Rule(
                    antecedents=tuple(antecedents),
                    consequent=float(
                        _require(entry, "consequent", (int, float), f"rules[{i}]")
                    ),
                    support_count=int(
                        _require(entry, "support_count", int, f"rules[{i}]")
                    ),
                )
            )
        return RuleBase(
            rules=tuple(rules),
            params=params,
            feature_names=tuple(names),
            normalization=Normalization(mins=tuple(mins), maxs=tuple(maxs)),
            selected_features=tuple(_require_list_of(doc, "selected_features", int, "rule base")),
            label_universe=tuple(_require_list_of(doc, "label_universe", int, "rule base")),
            consequent_strategy=str(_require(doc, "consequent_strategy", str, "rule base")),
            seed=int(_require(doc, "seed", int, "rule base")),
        )
    except (InvalidInputError, TypeError, ValueError) as exc:
        raise RuleBaseFormatError(f"rule-base document violates an invariant: {exc}") from exc


def save_rulebase(rb, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_rulebase(rb))


def load_rulebase(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize_rulebase(fh.read())
