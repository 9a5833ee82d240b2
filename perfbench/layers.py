"""Where the tracer hooks into fuzzyloc, and the per-layer metrics it yields.

Each site is the module attribute through which the program (or the
benchmark) looks a public function up. ``pipeline`` imported ``load_csv``,
``extract_rules`` and friends by name, ``rulebase`` imported ``elbow_k`` and
``kmeans``, and ``cli`` imported ``predict``, ``load_rulebase`` and
``read_feature_rows``, so those are patched where they are used. Span names
are ``<layer>.<function>``; the layer decides where self time is booked.
"""

import inspect
import os

from fuzzyloc import cli, clustering, curvature, inference, pipeline, rulebase
from tracer import Tracer

LAYERS = ("data", "curvature", "clustering", "rulebase", "inference", "pipeline", "cli")
_KMEANS_SIGNATURE = inspect.signature(clustering.kmeans)


def _count(key, amount):
    def on_call(tracer, args, kwargs, result):
        tracer.counters[key] += amount(args, kwargs, result)

    return on_call


def _fit(tracer, args, kwargs, result):
    bound = _KMEANS_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.note_fit(**bound.arguments)


def _fallback(tracer, args, kwargs, result):
    tracer.counters["fallback_rows"] += int(result.fallback_used)


def _cli_output(tracer, args, kwargs, result):
    argv = list(args[0])
    if "--out" in argv:
        tracer.counters["cli_output_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


def build_tracer():
    t = Tracer()
    t.patch(pipeline, "run_experiment", "pipeline.run_experiment")
    t.patch(pipeline, "train_rulebase", "pipeline.train_rulebase")
    t.patch(pipeline, "load_csv", "data.load_csv",
            _count("rows_loaded", lambda a, k, r: r.n_instances))
    t.patch(pipeline, "fit_normalization", "data.fit_normalization")
    t.patch(pipeline, "rank_features", "curvature.rank_features")
    t.patch(curvature, "feature_curvature", "curvature.feature_curvature",
            _count("triples", lambda a, k, r: max(len(a[0]) - 2, 0)))
    t.patch(pipeline, "extract_rules", "rulebase.extract_rules",
            _count("rules", lambda a, k, r: r.n_rules))
    t.patch(rulebase, "elbow_k", "clustering.elbow_k")
    t.patch(rulebase, "kmeans", "clustering.final_kmeans", _fit)
    t.patch(clustering, "kmeans", "clustering.kmeans", _fit)
    t.patch(pipeline, "predict_batch", "inference.predict_batch")
    t.patch(inference, "predict", "inference.predict", _fallback)
    t.patch(cli, "predict", "inference.predict", _fallback)
    t.patch(inference, "predict_fuzzy", "inference.predict_fuzzy",
            _count("rule_dim_evals", lambda a, k, r: a[0].n_rules * len(a[0].selected_features)))
    t.patch(pipeline, "build_report", "pipeline.build_report")
    t.patch(pipeline, "write_artifacts", "pipeline.write_artifacts")
    t.patch(pipeline, "render_report", "pipeline.render_report",
            _count("report_bytes", lambda a, k, r: len(r.encode("utf-8"))))
    for module in (pipeline, rulebase):
        t.patch(module, "save_rulebase", "rulebase.save_rulebase")
    t.patch(rulebase, "serialize_rulebase", "rulebase.serialize_rulebase",
            _count("json_bytes", lambda a, k, r: len(r.encode("utf-8"))))
    for module in (rulebase, cli):
        t.patch(module, "load_rulebase", "rulebase.load_rulebase")
    t.patch(cli, "read_feature_rows", "data.read_feature_rows",
            _count("rows_read", lambda a, k, r: len(r)))
    t.patch(cli, "main", "cli.main", _cli_output)
    return t


def layer_metrics(t, wall):
    """Per-layer metrics of one traced round of ``wall`` seconds."""
    c = t.counters
    load_s = t.named_time("data.load_csv")
    read_s = t.named_time("data.read_feature_rows")
    fits = c["kmeans_fits"]
    totals = t.layer_totals()
    predicts = t.named("inference.predict")
    direct_fuzzy = [
        s for s in t.named("inference.predict_fuzzy")
        if s.parent is None or t.spans[s.parent].name != "inference.predict"
    ]
    metrics = {
        "data.load_csv_s": (load_s, "s"),
        "data.read_feature_rows_s": (read_s, "s"),
        "data.normalize_s": (t.named_time("data.fit_normalization"), "s"),
        "data.rows_per_s": (
            (c["rows_loaded"] + c["rows_read"]) / (load_s + read_s) if load_s + read_s else 0.0,
            "1/s",
        ),
        "curvature.rank_s": (t.named_time("curvature.rank_features"), "s"),
        "curvature.triples": (c["triples"], "count"),
        "clustering.elbow_s": (t.named_time("clustering.elbow_k"), "s"),
        "clustering.final_kmeans_s": (t.named_time("clustering.final_kmeans"), "s"),
        "clustering.kmeans_fits": (fits, "count"),
        "clustering.repeat_fits": (c["repeat_fits"], "count"),
        "clustering.useful_fit_ratio": ((fits - c["repeat_fits"]) / fits if fits else 0.0, "ratio"),
        "rulebase.extract_self_s": (t.named_time("rulebase.extract_rules"), "s"),
        "rulebase.n_rules": (c["rules"], "count"),
        "rulebase.serialize_s": (t.named_time("rulebase.serialize_rulebase"), "s"),
        "rulebase.load_s": (t.named_time("rulebase.load_rulebase"), "s"),
        "rulebase.json_bytes": (c["json_bytes"], "bytes"),
        "inference.predict_batch_s": (t.named_time("inference.predict_batch"), "s"),
        "inference.row_ms": (t.median_ms(predicts), "ms"),
        "predict_row_ms_p99": (t.quantile_ms(predicts, 0.99), "ms"),
        "inference.rule_dim_evals": (c["rule_dim_evals"], "count"),
        "inference.rule_dim_evals_per_s": (
            c["rule_dim_evals"] / totals["inference"] if totals["inference"] else 0.0,
            "1/s",
        ),
        "inference.fallback_rows": (c["fallback_rows"], "count"),
        "inference.fallback_row_ms": (
            t.median_ms([s for s in predicts if s.result.fallback_used]),
            "ms",
        ),
        "inference.fuzzy_row_ms": (t.median_ms(direct_fuzzy), "ms"),
        "pipeline.report_s": (t.named_time("pipeline.build_report"), "s"),
        "pipeline.write_artifacts_s": (t.named_time("pipeline.write_artifacts"), "s"),
        "pipeline.report_bytes": (c["report_bytes"], "bytes"),
        "cli.predict_s": (sum(s.duration for s in t.named("cli.main")), "s"),
        "cli.self_s": (t.named_time("cli.main"), "s"),
        "cli.output_bytes": (c["cli_output_bytes"], "bytes"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = (totals[layer], "s")
    metrics["layer.bench_s"] = (wall - sum(totals.values()), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.spans"] = (len(t.spans), "count")
    return metrics
