"""The benchmark's workloads and the serving pass they share.

Every input is generated here from ``fuzzyloc.synth`` and a seed; the
program only ever sees CSV files and rule-base files. Each workload stresses
a different layer:

- ``corridor-sweep``: eight small experiments, one per held-out room; many
  elbow sweeps over 30-point classes, so clustering call overhead dominates.
- ``building-40``: the largest per-class training run plus inference over
  about 165 rules, so both training and inference gains show.
- ``building-global``: the only ``global-mean`` and curvature-ranking run;
  k-means over the whole training set, negligible inference.
- ``predict-stream``: a saved rule base labels a stream of rows through the
  CLI, per row and as fuzzy observations; the timed work is all inference.

Training workloads also serve the rule bases they wrote (CLI predict, per-row
latency and fuzzy observations over the held-out rows), so every workload
reports the same serving metrics.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fuzzyloc import cli, inference, pipeline, rulebase, synth
from fuzzyloc.data import Dataset
from fuzzyloc.fuzzy import TriangularFuzzySet

NOISE_SD = 0.5
LABEL = synth.LABEL_COLUMN
# UJIIndoorLoc-style non-detection value; a real reading never reaches it
SENTINEL = 100.0
SENTINEL_SHARE = 0.05
FUZZY_SPREAD_DB = 1.0
# rows timed between two calibration laps (see stopwatch.py)
ROW_CHUNK = 32

SIZES = {
    "full": {
        "corridor": (10, 30, 5),
        "corridor_rooms": tuple(range(2, 10)),
        "building": (40, 100, 24),
        "building_held": (13, 28),
        "global_top_n": 16,
        "stream": (21, 70, 24),
        "stream_held": (6, 16),
        "stream_queries_per_room": 48,
        "stream_fuzzy_rows": 200,
    },
    "tiny": {
        "corridor": (5, 8, 3),
        "corridor_rooms": (2, 3, 4),
        "building": (8, 12, 6),
        "building_held": (3, 6),
        "global_top_n": 4,
        "stream": (6, 10, 6),
        "stream_held": (2, 5),
        "stream_queries_per_room": 5,
        "stream_fuzzy_rows": 10,
    },
}


def _write_rows(path, rows, truths, names):
    synth.write_csv(
        Dataset(features=rows, labels=truths, feature_names=names), path, label_column=LABEL
    )


@dataclass
class ServeTarget:
    """One rule base and the rows it labels, in CSV order."""

    rulebase_path: str
    query_path: str
    rows: np.ndarray
    truths: np.ndarray
    held_out: tuple
    fuzzy_obs: list = field(default_factory=list)

    def __post_init__(self):
        if not self.fuzzy_obs:
            self.fuzzy_obs = fuzzy_observations(self.rows[::2])


def fuzzy_observations(rows):
    """+-1 dB triangular observation per feature of each row."""
    return [
        [TriangularFuzzySet(v - FUZZY_SPREAD_DB, v, v + FUZZY_SPREAD_DB) for v in map(float, row)]
        for row in rows
    ]


class Workload:
    name = None
    # training passes run run_experiment; the serving-only workload has none
    trains = True
    # input sets a run draws from its seed; passes cycle through them
    variants = 1

    def __init__(self, size, seed, workdir):
        self.size = SIZES[size]
        self.seed = int(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.targets = []
        self.configs = []
        self.make_inputs()

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def make_inputs(self):
        raise NotImplementedError

    def set_up(self):
        """Program set-up beyond the import (timed into setup_s)."""

    def train_pass(self):
        """One timed pass of experiments; returns their RunResults."""
        return [pipeline.run_experiment(config) for config in self.configs]

    def _experiment(self, csv_path, dataset, held, out_name, **options):
        out_dir = self.path(out_name)
        self.configs.append(
            pipeline.ExperimentConfig(
                input_path=csv_path,
                label_column=LABEL,
                feature_columns=dataset.feature_names,
                unseen_labels=held,
                output_dir=out_dir,
                **options,
            )
        )
        mask = np.isin(dataset.labels, held)
        query = self.path(f"{out_name}-queries.csv")
        _write_rows(query, dataset.features[mask], dataset.labels[mask], dataset.feature_names)
        self.targets.append(
            ServeTarget(
                rulebase_path=os.path.join(out_dir, pipeline.RULEBASE_FILENAME),
                query_path=query,
                rows=dataset.features[mask],
                truths=dataset.labels[mask],
                held_out=tuple(held),
            )
        )


class CorridorSweep(Workload):
    name = "corridor-sweep"

    def make_inputs(self):
        rooms, per_room, beacons = self.size["corridor"]
        dataset = synth.generate_synthetic(rooms, per_room, beacons, NOISE_SD, self.seed)
        csv_path = self.path("corridor.csv")
        synth.write_csv(dataset, csv_path)
        for room in self.size["corridor_rooms"]:
            self._experiment(csv_path, dataset, (room,), f"room-{room}")


class Building40(Workload):
    name = "building-40"

    def make_inputs(self):
        rooms, per_room, beacons = self.size["building"]
        dataset = synth.generate_synthetic(rooms, per_room, beacons, NOISE_SD, self.seed)
        csv_path = self.path("building.csv")
        synth.write_csv(dataset, csv_path)
        self._experiment(csv_path, dataset, self.size["building_held"], "building", **self.options())

    def options(self):
        return {}


class BuildingGlobal(Building40):
    name = "building-global"
    # k-means over the whole set converges in a data-dependent number of
    # iterations: one training pass took 1.09 s to 1.63 s over seeds 11-15,
    # so a run times passes over four buildings drawn from its seed
    variants = 4

    def options(self):
        return {"strategy": rulebase.GLOBAL_MEAN, "cfs_top_n": self.size["global_top_n"]}


class PredictStream(Workload):
    name = "predict-stream"
    trains = False

    def make_inputs(self):
        rooms, per_room, beacons = self.size["stream"]
        held = self.size["stream_held"]
        train = synth.generate_synthetic(rooms, per_room, beacons, NOISE_SD, self.seed)
        csv_path = self.path("train.csv")
        synth.write_csv(train, csv_path)
        self.config = pipeline.ExperimentConfig(
            input_path=csv_path,
            label_column=LABEL,
            feature_columns=train.feature_names,
            unseen_labels=held,
        )
        self.rulebase_path = self.path("rulebase.json")

        # the query stream comes from an independent seed and covers every room
        query_seed = int(np.random.SeedSequence([self.seed, 1]).generate_state(1)[0])
        queries = synth.generate_synthetic(
            rooms, self.size["stream_queries_per_room"], beacons, NOISE_SD, query_seed
        )
        rng = np.random.default_rng(query_seed)
        order = rng.permutation(queries.n_instances)
        rows = queries.features[order].copy()
        truths = queries.labels[order]
        n_sentinel = round(SENTINEL_SHARE * len(rows))
        sentinel_rows = rng.choice(len(rows), size=n_sentinel, replace=False)
        rows[sentinel_rows, rng.integers(beacons, size=n_sentinel)] = SENTINEL
        query_path = self.path("queries.csv")
        _write_rows(query_path, rows, truths, train.feature_names)
        self.targets.append(
            ServeTarget(
                rulebase_path=self.rulebase_path,
                query_path=query_path,
                rows=rows,
                truths=truths,
                held_out=held,
                fuzzy_obs=fuzzy_observations(rows[: self.size["stream_fuzzy_rows"]]),
            )
        )

    def set_up(self):
        trained = pipeline.train_rulebase(self.config)
        rulebase.save_rulebase(trained.rule_base, self.rulebase_path)

    def train_pass(self):
        return []


WORKLOADS = {w.name: w for w in (CorridorSweep, Building40, BuildingGlobal, PredictStream)}


def variant_seed(seed, variant):
    """Input seed of one variant; variant 0 uses the run's seed itself."""
    if variant == 0:
        return int(seed)
    return int(np.random.SeedSequence([int(seed), 2, variant]).generate_state(1)[0])


@dataclass
class Served:
    """Outputs and timings of one serving pass over a workload's targets.

    Times are normalized (see stopwatch.py); ``raw_*`` fields hold the
    clock readings they came from.
    """

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cli_s: float = 0.0
    cli_rows: int = 0
    cli_outputs: list = field(default_factory=list)  # prediction dicts per target
    row_ms: list = field(default_factory=list)
    raw_row_ms: list = field(default_factory=list)
    latency_preds: list = field(default_factory=list)  # Predictions per target
    fuzzy_ms: list = field(default_factory=list)
    raw_fuzzy_ms: list = field(default_factory=list)
    fuzzy_preds: list = field(default_factory=list)  # Predictions per target
    rulebases: list = field(default_factory=list)

    def timed(self, stopwatch, calls):
        """Run ``calls`` one by one, timing each; one stopwatch lap for all.

        Returns (results, raw seconds per call, normalization factor).
        """
        results, raws = [], []
        for call in calls:
            t0 = time.perf_counter()
            results.append(call())
            raws.append(time.perf_counter() - t0)
        factor = stopwatch.lap()
        self.raw_wall_s += sum(raws)
        self.wall_s += sum(raws) * factor
        return results, raws, factor


def serve(targets, workdir, stopwatch, latency_repeats=1, min_part_s=0.0):
    """Label every target's rows the three ways a user would.

    1. ``fuzzyloc predict`` through ``cli.main`` in-process, output to a file;
    2. ``inference.predict`` per row, each call timed on its own, over the
       rows at least ``latency_repeats`` times;
    3. ``inference.predict_fuzzy`` on each +-1 dB triangular observation,
       timed on its own.
    Rows are timed in chunks of ``ROW_CHUNK`` between stopwatch laps. Each
    part repeats over all targets until it has run for ``min_part_s``;
    predictions are kept from its first round. ``wall_s`` sums the timed
    calls, rule-base loads included. The CLI output files are parsed after
    the timed part.
    """
    out = Served()
    stopwatch.start()
    out_paths = [os.path.join(workdir, f"predictions-{i}.json") for i in range(len(targets))]
    cli_raw_s = 0.0
    while True:
        for target, out_path in zip(targets, out_paths):
            argv = ["predict", "--rulebase", target.rulebase_path, "--input", target.query_path,
                    "--out", out_path]
            (code,), (raw,), factor = out.timed(stopwatch, [lambda: cli.main(argv)])
            if code != 0:
                raise RuntimeError(f"fuzzyloc predict exited with code {code}")
            cli_raw_s += raw
            out.cli_s += raw * factor
            out.cli_rows += len(target.rows)
        if cli_raw_s >= min_part_s:
            break
    out.rulebases, _, _ = out.timed(
        stopwatch, [lambda t=t: rulebase.load_rulebase(t.rulebase_path) for t in targets]
    )

    def part(items_of, ms, raw_ms, keep, repeats, call):
        part_s, repeat = 0.0, 0
        while repeat < repeats or (repeats and part_s < min_part_s):
            for rb, target, kept in zip(out.rulebases, targets, keep):
                items = items_of(target)
                for lo in range(0, len(items), ROW_CHUNK):
                    chunk = items[lo:lo + ROW_CHUNK]
                    results, raws, factor = out.timed(
                        stopwatch, [lambda x=x: call(rb, x) for x in chunk]
                    )
                    part_s += sum(raws)
                    ms += [r * factor * 1e3 for r in raws]
                    raw_ms += [r * 1e3 for r in raws]
                    if repeat == 0:
                        kept += results
            repeat += 1

    out.latency_preds = [[] for _ in targets]
    part(lambda t: t.rows, out.row_ms, out.raw_row_ms, out.latency_preds, latency_repeats,
         lambda rb, row: inference.predict(rb, row))
    out.fuzzy_preds = [[] for _ in targets]
    part(lambda t: t.fuzzy_obs, out.fuzzy_ms, out.raw_fuzzy_ms, out.fuzzy_preds, 1,
         lambda rb, obs: inference.predict_fuzzy(rb, obs))
    for path in out_paths:
        with open(path, encoding="utf-8") as fh:
            out.cli_outputs.append(json.load(fh)["predictions"])
    return out
