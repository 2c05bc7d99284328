"""Per-layer metrics of one traced repetition, derived from its spans and counters.

``*_s`` metrics of a function are inclusive span time; ``<layer>.self_s`` is
the summed self time of every span of that layer, so the eight layer self
times plus ``trace.outside_s`` equal ``trace.wall_s``.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS, Tracer, span_cost_s
from workloads import percentile

# name -> (unit, better); better is "lower" for time and for work counts
# (less work for the same result), "higher" for useful-outcome ratios
PER_LAYER_SPEC = {
    "scenarios.synth_s": ("s", "lower"),
    "scenarios.samples": ("count", "lower"),
    "store.append_calls": ("count", "lower"),
    "store.append_s": ("s", "lower"),
    "store.window_calls": ("count", "lower"),
    "store.window_s": ("s", "lower"),
    "store.window_rows_scanned": ("count", "lower"),
    "store.join_detections_s": ("s", "lower"),
    "store.join_labels_s": ("s", "lower"),
    "store.join_rows_out": ("count", "lower"),
    "store.max_seq_s": ("s", "lower"),
    "labeler.windows": ("count", "lower"),
    "labeler.label_window_s": ("s", "lower"),
    "labeler.run_labeler_s": ("s", "lower"),
    "mlp.train_calls": ("count", "lower"),
    "mlp.train_rows": ("count", "lower"),
    "mlp.train_s": ("s", "lower"),
    "mlp.train_us_per_row_epoch": ("us", "lower"),
    "mlp.save_s": ("s", "lower"),
    "mlp.load_s": ("s", "lower"),
    "detector.infer_calls": ("count", "lower"),
    "detector.infer_s": ("s", "lower"),
    "detector.infer_p50_us": ("us", "lower"),
    "detector.swap_calls": ("count", "lower"),
    "detector.swap_s": ("s", "lower"),
    "manager.monitor_calls": ("count", "lower"),
    "manager.monitor_s": ("s", "lower"),
    "manager.retrain_calls": ("count", "lower"),
    "manager.retrain_fits": ("count", "lower"),
    "manager.retrain_skipped": ("count", "lower"),
    "manager.retrain_s": ("s", "lower"),
    "manager.deploys": ("count", "lower"),
    "manager.retrain_useful_frac": ("fraction", "higher"),
    "manager.process_s": ("s", "lower"),
    "manager.process_p999_ms": ("ms", "lower"),
    "manager.first_deploy_seq": ("samples", "lower"),
    "experiment.run_s": ("s", "lower"),
    "experiment.write_artifacts_s": ("s", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "cli.simulate_self_s": ("s", "lower"),
    "cli.eval_labeler_s": ("s", "lower"),
    "cli.eval_labeler_self_s": ("s", "lower"),
    "cli.replay_s": ("s", "lower"),
    "cli.replay_self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.outside_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
PER_LAYER = {name: unit for name, (unit, _better) in PER_LAYER_SPEC.items()}


def per_layer_metrics(tracer: Tracer, rep) -> dict[str, float]:
    """Per-layer metrics of the traced repetition ``rep`` (a ``workloads.RepResult``)."""
    rows = tracer.summary()
    wall_s = rep.wall_s
    counters = tracer.counters

    def calls(name: str) -> int:
        return rows[name]["calls"] if name in rows else 0

    def total(name: str) -> float:
        return rows[name]["total_s"] if name in rows else 0.0

    def self_s(name: str) -> float:
        return rows[name]["self_s"] if name in rows else 0.0

    infer = tracer.durations("detector.infer")
    row_epochs = counters.get("mlp.train_row_epochs", 0)
    fits = counters.get("manager.retrain_fits", 0)
    deploys = counters.get("manager.deploys", 0)
    covered = sum(t1 - t0 for _n, parent, t0, t1, _s in tracer.spans if parent == -1)
    m = {
        # the caller's sink runs inside synth_stream but is its own child span
        "scenarios.synth_s": self_s("scenarios.synth_stream"),
        "scenarios.samples": counters.get("scenarios.samples", 0),
        "store.append_calls": calls("store.append"),
        "store.append_s": total("store.append"),
        "store.window_calls": calls("store.window"),
        "store.window_s": total("store.window"),
        "store.window_rows_scanned": counters.get("store.window_rows_scanned", 0),
        "store.join_detections_s": total("store.join_detections"),
        "store.join_labels_s": total("store.join_labels"),
        "store.join_rows_out": counters.get("store.join_rows_out", 0),
        "store.max_seq_s": total("store.max_seq"),
        "labeler.windows": calls("labeler.label_window"),
        "labeler.label_window_s": total("labeler.label_window"),
        "labeler.run_labeler_s": total("labeler.run_labeler"),
        "mlp.train_calls": calls("mlp.train"),
        "mlp.train_rows": counters.get("mlp.train_rows", 0),
        "mlp.train_s": total("mlp.train"),
        "mlp.train_us_per_row_epoch": (total("mlp.train") / row_epochs * 1e6
                                       if row_epochs else 0.0),
        "mlp.save_s": total("mlp.save"),
        "mlp.load_s": total("mlp.load"),
        "detector.infer_calls": calls("detector.infer"),
        "detector.infer_s": total("detector.infer"),
        "detector.infer_p50_us": statistics.median(infer) * 1e6 if infer else 0.0,
        "detector.swap_calls": calls("detector.swap_model"),
        "detector.swap_s": total("detector.swap_model"),
        "manager.monitor_calls": calls("manager.monitor"),
        "manager.monitor_s": total("manager.monitor"),
        "manager.retrain_calls": calls("manager.retrain"),
        "manager.retrain_fits": fits,
        "manager.retrain_skipped": counters.get("manager.retrain_skipped", 0),
        "manager.retrain_s": total("manager.retrain"),
        "manager.deploys": deploys,
        "manager.retrain_useful_frac": deploys / fits if fits else 0.0,
        "manager.process_s": total("manager.process"),
        "manager.process_p999_ms": 1e3 * percentile(tracer.durations("manager.process"),
                                                    0.999),
        # behaviour guard of the same repetition; -1: nothing was deployed
        "manager.first_deploy_seq": (-1 if rep.first_deploy_seq is None
                                     else rep.first_deploy_seq),
        "experiment.run_s": total("experiment.run_experiment"),
        "experiment.write_artifacts_s": total("experiment.write_artifacts"),
        "trace.wall_s": wall_s,
        "trace.outside_s": wall_s - covered,
        "trace.overhead_s": len(tracer.spans) * span_cost_s(),
        "trace.spans": len(tracer.spans),
    }
    for cmd in ("simulate", "eval_labeler", "replay"):
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
        m[f"cli.{cmd}_self_s"] = self_s(f"cli.{cmd}")
    # simulate's per-sample sink (JSON encode and write) runs inside synth_stream
    m["cli.simulate_self_s"] += self_s("cli.sink")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r["self_s"] for name, r in rows.items()
                                   if name.split(".")[0] == layer)
    return m


def self_time_table(tracer: Tracer, wall_s: float) -> str:
    """Span names by descending self time, with calls, inclusive time and share of wall."""
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':28s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name, r in rows:
        lines.append(f"{name:28s} {r['calls']:8d} {r['total_s']:9.3f} {r['self_s']:9.3f} "
                     f"{100 * r['self_s'] / wall_s:6.1f}")
    return "\n".join(lines)
