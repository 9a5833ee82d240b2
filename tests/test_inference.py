import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyloc import inference
from fuzzyloc.cli import main
from fuzzyloc.data import Dataset, Normalization
from fuzzyloc.errors import DataError, InvalidInputError
from fuzzyloc.fuzzy import (
    SimilarityParams,
    TriangularFuzzySet,
    aggregate,
    firing_degree,
    representative,
    similarity,
    singleton,
)
from fuzzyloc.inference import (
    discretize,
    predict,
    predict_batch,
    predict_fuzzy,
    predict_rows,
)
from fuzzyloc.rulebase import PER_CLASS, Rule, RuleBase, extract_rules, save_rulebase
from fuzzyloc.synth import write_csv

from conftest import identity_normalized, random_rulebase

EPS = 2.0**-52


def onedim_rulebase(rule_specs, universe=(1, 10)):
    """Rule base over a single identity-normalized feature "x".

    rule_specs: list of (triangle vertices, consequent).
    """
    return RuleBase(
        rules=tuple(
            Rule(
                antecedents=(TriangularFuzzySet(*vertices),),
                consequent=consequent,
                support_count=1,
            )
            for vertices, consequent in rule_specs
        ),
        params=SimilarityParams(),
        feature_names=("x",),
        normalization=Normalization(mins=(0.0,), maxs=(1.0,)),
        selected_features=(0,),
        label_universe=tuple(range(universe[0], universe[1] + 1)),
        consequent_strategy=PER_CLASS,
        seed=0,
    )


class TestDiscretize:
    def test_nearest_member(self):
        assert discretize(4.9, (1, 2, 3, 4, 5)) == 5
        assert discretize(1.2, (1, 2, 3)) == 1

    def test_midpoint_goes_to_smaller_label(self):
        assert discretize(4.5, tuple(range(1, 11))) == 4
        assert discretize(1.5, (1, 2)) == 1

    def test_exact_member_is_returned_unchanged(self):
        for label in (1, 5, 10):
            assert discretize(float(label), tuple(range(1, 11))) == label

    def test_output_clips_to_universe_edges(self):
        assert discretize(-3.0, (1, 2, 3)) == 1
        assert discretize(99.0, (1, 2, 3)) == 3

    def test_empty_universe(self):
        with pytest.raises(InvalidInputError):
            discretize(1.0, ())

    @given(data=st.data())
    def test_matches_the_linear_scan(self, data):
        universe = tuple(
            sorted(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40, unique=True)))
        )
        i = data.draw(st.integers(0, len(universe) - 1))
        gamma = data.draw(
            st.one_of(
                st.floats(min_value=-2e6, max_value=2e6),
                st.just(float(universe[i])),
                st.just((universe[i] + universe[min(i + 1, len(universe) - 1)]) / 2.0),
            )
        )
        linear = min(universe, key=lambda u: (abs(gamma - u), u))
        assert discretize(gamma, universe) == linear


class TestPredict:
    def test_dominant_rule_wins(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0), ((7.0, 7.5, 8.0), 9.0)])
        p = predict(rb, [0.2])
        assert p.label == 2
        assert not p.fallback_used
        assert p.gamma == pytest.approx(2.0, abs=1e-9)

    def test_equal_pull_lands_between_consequents(self):
        # unseen label 5 emerges although no rule carries it
        rb = onedim_rulebase([((0.4, 0.4, 0.4), 4.0), ((0.6, 0.6, 0.6), 6.0)])
        p = predict(rb, [0.5])
        assert p.gamma == pytest.approx(5.0, rel=1e-12)
        assert p.label == 5
        assert p.total_firing > 0

    def test_fallback_picks_nearest_rule_by_representative(self):
        rb = onedim_rulebase([((0.3, 0.4, 0.5), 4.0), ((0.5, 0.6, 0.7), 6.0)])
        p = predict(rb, [100.0])
        assert p.fallback_used
        assert p.total_firing == 0.0
        assert p.gamma == 6.0
        assert p.label == 6

    def test_gamma_stays_between_consequents_without_fallback(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            rb = random_rulebase(rng)
            raw = [
                rng.uniform(lo, hi if hi > lo else lo + 1.0)
                for lo, hi in zip(rb.normalization.mins, rb.normalization.maxs)
            ]
            p = predict(rb, raw)
            assert p.label in rb.label_universe
            if not p.fallback_used:
                consequents = [r.consequent for r in rb.rules]
                assert min(consequents) - 1e-9 <= p.gamma <= max(consequents) + 1e-9

    def test_deterministic(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0), ((0.6, 0.7, 0.8), 8.0)])
        assert predict(rb, [0.33]) == predict(rb, [0.33])

    def test_normalization_is_applied_to_raw_inputs(self):
        rb = RuleBase(
            rules=(
                Rule(antecedents=(singleton(0.0),), consequent=1.0, support_count=1),
                Rule(antecedents=(singleton(1.0),), consequent=3.0, support_count=1),
            ),
            params=SimilarityParams(),
            feature_names=("rssi",),
            normalization=Normalization(mins=(-80.0,), maxs=(-20.0,)),
            selected_features=(0,),
            label_universe=(1, 2, 3),
            consequent_strategy=PER_CLASS,
            seed=0,
        )
        assert predict(rb, [-80.0]).label == 1
        assert predict(rb, [-20.0]).label == 3
        assert predict(rb, [-50.0]).label == 2  # halfway between the cores

    def test_arity_mismatch(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0)])
        with pytest.raises(InvalidInputError):
            predict(rb, [0.1, 0.2])

    def test_non_finite_input(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0)])
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                predict(rb, [bad])


class TestPredictFuzzy:
    def test_singleton_observation_matches_crisp_entry_point(self):
        rb = onedim_rulebase([((0.1, 0.2, 0.3), 2.0), ((0.6, 0.7, 0.8), 8.0)])
        assert predict_fuzzy(rb, [singleton(0.42)]) == predict(rb, [0.42])

    def test_triangular_observation_is_normalized_vertex_wise(self):
        rb = RuleBase(
            rules=(Rule(antecedents=(singleton(0.5),), consequent=2.0, support_count=1),),
            params=SimilarityParams(),
            feature_names=("rssi",),
            normalization=Normalization(mins=(0.0,), maxs=(10.0,)),
            selected_features=(0,),
            label_universe=(1, 2, 3),
            consequent_strategy=PER_CLASS,
            seed=0,
        )
        wide = predict_fuzzy(rb, [TriangularFuzzySet(4.0, 5.0, 6.0)])
        exact = predict_fuzzy(rb, [singleton(5.0)])
        assert wide.label == exact.label == 2
        assert wide.total_firing < exact.total_firing  # vertex spread costs similarity


class TestMonotoneDominance:
    @given(
        firings=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8
        ),
        consequents=st.lists(
            st.floats(min_value=-50, max_value=50), min_size=8, max_size=8
        ),
        index=st.integers(min_value=0, max_value=7),
        boost=st.floats(min_value=1.1, max_value=100.0),
    )
    def test_boosting_a_rule_pulls_output_toward_it(self, firings, consequents, index, boost):
        consequents = consequents[: len(firings)]
        index %= len(firings)
        before = aggregate(firings, consequents)
        boosted = list(firings)
        boosted[index] *= boost
        after = aggregate(boosted, consequents)
        target = consequents[index]
        assert abs(after - target) <= abs(before - target) + 1e-9


class TestPredictBatch:
    def cores_setup(self):
        features = [
            [0.00, 0.05],
            [0.10, 0.00],
            [0.05, 0.10],
            [0.45, 0.50],
            [0.55, 0.45],
            [0.50, 0.55],
            [0.90, 0.95],
            [1.00, 0.90],
            [0.95, 1.00],
        ]
        labels = [1, 1, 1, 5, 5, 5, 9, 9, 9]
        train = identity_normalized(features, labels)
        # steep distance decay so each core is dominated by its own rule
        rb = extract_rules(train, k_max=1, seed=0, params=SimilarityParams(h=50.0, omega=5.0))
        cores = [[a.a2 for a in rule.antecedents] for rule in rb.rules]
        truth = [int(rule.consequent) for rule in rb.rules]
        return rb, Dataset(features=cores, labels=truth, feature_names=train.feature_names)

    def test_rule_cores_predict_their_own_class(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        assert result.accuracy == 1.0
        assert result.n_correct == result.n_instances == 3
        assert result.fallback_count == 0

    def test_confusion_matrix_counts_each_instance_once(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        assert sum(map(sum, result.confusion)) == result.n_instances
        position = {label: i for i, label in enumerate(result.label_universe)}
        for truth, pred in zip(result.truths, result.predictions):
            assert result.confusion[position[truth]][position[pred.label]] >= 1

    def test_empty_dataset_reports_no_instances(self):
        rb, cores = self.cores_setup()
        empty = Dataset(
            features=np.empty((0, 2)), labels=np.empty(0, dtype=int),
            feature_names=cores.feature_names,
        )
        result = predict_batch(rb, empty)
        assert result.no_instances
        assert result.n_instances == 0
        assert math.isnan(result.accuracy)
        assert math.isnan(result.mean_abs_error)
        assert sum(map(sum, result.confusion)) == 0

    def test_truth_outside_universe_is_a_data_error(self):
        rb, cores = self.cores_setup()
        stray = Dataset(
            features=[[0.0, 0.0]], labels=[77], feature_names=cores.feature_names
        )
        with pytest.raises(DataError, match="77"):
            predict_batch(rb, stray)

    def test_feature_name_mismatch_is_rejected(self):
        rb, cores = self.cores_setup()
        renamed = Dataset(
            features=cores.features, labels=cores.labels, feature_names=("a", "b")
        )
        with pytest.raises(InvalidInputError):
            predict_batch(rb, renamed)

    def test_per_instance_errors_carry_the_index(self):
        rb, cores = self.cores_setup()
        poisoned = Dataset(
            features=[[0.0, 0.0], [math.inf, 0.0]],
            labels=[1, 1],
            feature_names=cores.feature_names,
        )
        with pytest.raises(InvalidInputError, match="instance 1"):
            predict_batch(rb, poisoned)

    def test_mean_abs_error_matches_manual_recomputation(self):
        rb, cores = self.cores_setup()
        result = predict_batch(rb, cores)
        manual = sum(
            abs(p.gamma - t) for t, p in zip(result.truths, result.predictions)
        ) / result.n_instances
        assert result.mean_abs_error == manual


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b))) if a != b else 0.0


@st.composite
def scenarios(draw):
    """A random rule base and one observation in raw units.

    The observation is crisp, triangular, far outside the training range
    (so nothing fires and the fallback decides), or placed so that
    h*d - omega lands where exp overflows while the shape term is still
    positive.
    """
    kind = draw(st.sampled_from(["crisp", "triangle", "far", "overflow"]))
    n_features = draw(st.integers(1, 4))
    selected = draw(
        st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features, unique=True)
    )
    if kind == "overflow":
        mins, spans = [0.0] * n_features, [1.0] * n_features
        h, omega = draw(st.floats(800.0, 5000.0)), draw(st.floats(-10.0, 50.0))
    else:
        mins = draw(st.lists(st.floats(-100.0, 100.0), min_size=n_features, max_size=n_features))
        spans = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.5, 50.0)),
                min_size=n_features,
                max_size=n_features,
            )
        )
        h, omega = draw(st.floats(0.1, 50.0)), draw(st.floats(-10.0, 50.0))
    lo = draw(st.integers(-5, 5))
    universe = tuple(range(lo, lo + draw(st.integers(1, 12))))
    unit = st.floats(-0.5, 1.5)
    rules = tuple(
        Rule(
            antecedents=tuple(
                TriangularFuzzySet(*sorted(draw(st.tuples(unit, unit, unit))))
                for _ in selected
            ),
            consequent=draw(st.floats(float(universe[0]), float(universe[-1]))),
            support_count=1,
        )
        for _ in range(draw(st.integers(1, 6)))
    )
    rb = RuleBase(
        rules=rules,
        params=SimilarityParams(h=h, omega=omega),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        normalization=Normalization(
            mins=tuple(mins), maxs=tuple(m + s for m, s in zip(mins, spans))
        ),
        selected_features=tuple(selected),
        label_universe=universe,
        consequent_strategy=PER_CLASS,
        seed=0,
    )

    if kind == "far":
        unit = st.one_of(st.floats(-1e4, -50.0), st.floats(50.0, 1e4))
    normalized = [sorted(draw(st.tuples(unit, unit, unit))) for _ in range(n_features)]
    if kind in ("crisp", "far"):
        normalized = [[v[1]] * 3 for v in normalized]
    if kind == "overflow":
        # crisp, one rule-dimension pair at distance d with h*d - omega in
        # (709.78, 745]: shape 1 - d stays positive, math.exp overflows
        x = draw(st.floats(711.0, 744.0))
        d = (x + omega) / h
        target = representative(draw(st.sampled_from(rules)).antecedents[0])
        normalized[selected[0]] = [target + d] * 3
    observation = [
        TriangularFuzzySet(*(m + v * s for v in vertices))
        for m, s, vertices in zip(mins, spans, normalized)
    ]
    return rb, observation


def scalar_reference(rb, observation):
    """Per-rule firings, gamma (None when nothing fires) and the nearest rule
    distances, from the scalar functions in fuzzy.py."""
    norm = rb.normalization
    obs = [
        TriangularFuzzySet(*(norm.apply_value(v, j) for v in (s.a1, s.a2, s.a3)))
        for j, s in ((j, observation[j]) for j in rb.selected_features)
    ]
    firings = [
        firing_degree(similarity(o, a, rb.params) for o, a in zip(obs, rule.antecedents))
        for rule in rb.rules
    ]
    gamma = aggregate(firings, rb.consequents.tolist()) if sum(firings) > 0.0 else None
    obs_rep = [representative(o) for o in obs]
    distances = [
        math.dist(obs_rep, [representative(a) for a in rule.antecedents]) for rule in rb.rules
    ]
    return firings, gamma, distances


class TestKernelMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(scenario=scenarios())
    def test_firings_gamma_label_and_fallback(self, scenario):
        rb, observation = scenario
        firings, gamma, distances = scalar_reference(rb, observation)
        p = predict_fuzzy(rb, observation)

        assert len(p.per_rule_firings) == rb.n_rules
        for got, want in zip(p.per_rule_firings, firings):
            assert ulps_apart(got, want) <= 4, (got, want)
        assert p.fallback_used == (gamma is None)
        consequents = rb.consequents.tolist()
        if gamma is None:
            # nearest rule; a near tie may go either way between the two
            # distance formulas, so accept any rule at the minimal distance
            near = [
                c for c, dist in zip(consequents, distances) if dist <= min(distances) * (1 + 1e-12)
            ]
            assert p.gamma in near
            assert p.label == discretize(p.gamma, rb.label_universe)
        else:
            # 16 ulp at the scale of the consequents: the blend of
            # mixed-sign consequents can cancel to well below that scale
            scale = max([1.0] + [abs(c) for c in consequents])
            assert abs(p.gamma - gamma) <= 16 * EPS * scale
            midpoint = math.floor(gamma) + 0.5
            if abs(gamma - midpoint) > 16 * EPS * scale:
                assert p.label == discretize(gamma, rb.label_universe)

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_crisp_entry_point_agrees_with_singletons(self, scenario):
        rb, observation = scenario
        row = [s.a2 for s in observation]
        assert predict(rb, row) == predict_fuzzy(rb, [singleton(v) for v in row])

    def test_overflow_window_falls_back_instead_of_raising(self):
        # h*d - omega = 720 for the only rule: exp overflows, nothing fires
        rb = RuleBase(
            rules=(Rule(antecedents=(singleton(0.0),), consequent=3.0, support_count=1),),
            params=SimilarityParams(h=1000.0, omega=0.0),
            feature_names=("x",),
            normalization=Normalization(mins=(0.0,), maxs=(1.0,)),
            selected_features=(0,),
            label_universe=(1, 2, 3),
            consequent_strategy=PER_CLASS,
            seed=0,
        )
        assert similarity(singleton(0.72), singleton(0.0), rb.params) == 0.0
        p = predict(rb, [0.72])
        assert p.fallback_used
        assert p.per_rule_firings.tolist() == [0.0]
        assert p.gamma == 3.0


class TestOnePredictionPath:
    """Per-row predict, predict_batch and `fuzzyloc predict` share one kernel,
    so the block size must not change a single bit of the output."""

    @pytest.mark.parametrize("block_elements", [1, 10**7])
    def test_batch_cli_and_per_row_are_bit_identical(
        self, block_elements, corridor, corridor_rulebase, tmp_path, monkeypatch
    ):
        rb = corridor_rulebase
        rows = corridor.features.copy()
        rows[::17, 2] = 100.0  # +100 non-detection sentinels force fallbacks
        labels = np.clip(corridor.labels, rb.label_universe[0], rb.label_universe[-1])
        data = Dataset(features=rows, labels=labels, feature_names=rb.feature_names)
        rb_path, csv_path, out_path = tmp_path / "rb.json", tmp_path / "q.csv", tmp_path / "p.json"
        save_rulebase(rb, rb_path)
        write_csv(data, csv_path)

        monkeypatch.setattr(inference, "_BLOCK_ELEMENTS", block_elements)
        per_row = [predict(rb, row) for row in rows]
        assert any(p.fallback_used for p in per_row)
        expected = [(p.label, p.gamma, p.fallback_used) for p in per_row]
        batch = predict_batch(rb, data).predictions
        assert [(p.label, p.gamma, p.fallback_used) for p in batch] == expected
        assert list(predict_rows(rb, rows)) == per_row
        argv = ["predict", "--rulebase", str(rb_path), "--input", str(csv_path)]
        assert main(argv + ["--out", str(out_path)]) == 0
        cli = json.loads(out_path.read_text(encoding="utf-8"))["predictions"]
        assert [(p["label"], p["gamma"], p["fallback_used"]) for p in cli] == expected

    def test_block_size_does_not_change_the_bits(self, corridor, corridor_rulebase, monkeypatch):
        got = []
        for block_elements in (1, 3 * 5 * 7, 10**7):
            monkeypatch.setattr(inference, "_BLOCK_ELEMENTS", block_elements)
            got.append(list(predict_rows(corridor_rulebase, corridor.features)))
        assert got[0] == got[1] == got[2]

    def test_predict_rows_validates_its_input(self, corridor_rulebase):
        with pytest.raises(InvalidInputError, match="features"):
            predict_rows(corridor_rulebase, [[0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="row 1"):
            predict_rows(corridor_rulebase, [[-50.0] * 5, [-50.0, math.nan, 0.0, 0.0, 0.0]])
