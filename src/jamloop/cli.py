"""Command-line entry points: simulate, eval-labeler, run-experiment, replay, deploy.

Exit codes: 0 success, 1 experiment-level failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

from . import mlp
from .config import ConfigError, load_config
from .detector import DetectorXapp
from .experiment import (ExperimentError, default_experiment_config,
                         labeler_accuracy_by_scenario, run_experiment)
from .labeler import run_labeler
from .manager import ManagerError, ModelRegistry
from .scenarios import KpiSample, ScheduleError, Segment, load_schedule, synth_stream
from .store import (SchemaError, StoreError, TelemetryStore, read_trace, to_wire,
                    write_detections)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# per command, the arguments that name an input file
INPUT_FILES = {"simulate": ("schedule",), "eval-labeler": ("trace",),
               "replay": ("model", "trace"), "deploy": ("model",)}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jamloop",
                                description="Adaptive uplink jamming detection loop")
    p.add_argument("--config", type=Path, default=None, help="global YAML config file")
    p.add_argument("--seed", type=int, default=1, help="master RNG seed")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="synthesize a KPI trace from a schedule")
    sp.add_argument("--schedule", type=Path, required=True)
    sp.add_argument("--with-truth", action="store_true",
                    help="include ground-truth flags in the trace")

    ep = sub.add_parser("eval-labeler", help="score labeler output per scenario")
    ep.add_argument("--trace", type=Path, required=True,
                    help="JSONL KPI trace written with --with-truth")

    sub.add_parser("run-experiment",
                   help="two-arm adaptive-vs-static accuracy comparison")

    rp = sub.add_parser("replay", help="offline inference of a trace with one model")
    rp.add_argument("--trace", type=Path, required=True)
    rp.add_argument("--model", type=Path, required=True)

    dp = sub.add_parser("deploy", help="validate and register a model file")
    dp.add_argument("--model", type=Path, required=True)
    dp.add_argument("--registry", type=Path, default=None,
                    help="registry directory (defaults to <out>/models)")
    return p


def cmd_simulate(args, cfg) -> int:
    schedule = load_schedule(args.schedule, args.seed)
    for warning in schedule.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / "trace.jsonl"
    with trace_path.open("w", encoding="utf-8") as f:
        def sink(s: KpiSample) -> None:
            f.write(json.dumps(to_wire(s, with_truth=args.with_truth)) + "\n")
        summary = synth_stream(schedule, cfg.engine, sink)
    print(f"wrote {summary.n_samples} samples to {trace_path} "
          f"(digest {summary.digest[:12]})")
    return EXIT_OK


def cmd_eval_labeler(args, cfg) -> int:
    columns, samples = read_trace(args.trace)
    if not samples:
        print("error: empty trace", file=sys.stderr)
        return EXIT_FAILURE
    if "truth" not in columns:
        print("error: trace carries no ground truth; rerun simulate with --with-truth",
              file=sys.stderr)
        return EXIT_FAILURE

    store = TelemetryStore(max_records=max(len(samples) + 1, 1_000_000))
    for s in samples:
        store.append("kpi", s)
    run_labeler(store, cfg.labeler)
    labels = {r.seq: r.label for r in store.window("labels")}

    # the trace names no scenarios: a segment is a run of constant truth in seq order
    samples = store.window("kpi")
    segments: list[Segment] = []
    for truth, run in itertools.groupby(samples, key=lambda s: s.truth_interference):
        run = list(run)
        segments.append(Segment(scenario_id=len(segments) + 1, event="ON" if truth else "OFF",
                                start_seq=run[0].seq, end_seq=run[-1].seq))
    rows = labeler_accuracy_by_scenario(samples, labels, segments,
                                        cfg.labeler.smoothing_halfwidth)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "labeler_accuracy.csv"
    with out_path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["segment", "event", "start_seq", "end_seq", "accuracy",
                    "accuracy_transition_excluded"])
        for seg, row in zip(segments, rows):
            w.writerow([seg.scenario_id, seg.event, seg.start_seq, seg.end_seq,
                        repr(row.accuracy), repr(row.accuracy_transition_excluded)])
    print(f"wrote {len(rows)} segment rows to {out_path}")
    return EXIT_OK


def cmd_run_experiment(args, cfg) -> int:
    exp = default_experiment_config(
        seed=args.seed,
        samples_per_scenario=cfg.experiment.samples_per_scenario,
        passes=cfg.experiment.passes, output_dir=args.out)
    exp.baseline_train_entries = cfg.experiment.baseline_train_entries
    exp.channel = cfg.engine
    exp.labeler = cfg.labeler
    exp.loop = cfg.loop
    report = run_experiment(exp, registry_dir=args.out / "models")
    for w in report.windows:
        loop_acc = "  n/a" if w.loop_accuracy is None else f"{w.loop_accuracy:.3f}"
        print(f"window {w.label:>3} scenarios {'+'.join(map(str, w.scenario_ids)):>5}: "
              f"loop {loop_acc}  static {w.baseline_accuracy:.3f}")
    print(f"artifacts in {args.out} ({report.n_samples} samples, "
          f"{report.runtime_s:.1f}s)")
    return EXIT_OK


def cmd_replay(args, cfg) -> int:
    model = mlp.load(args.model)
    _, samples = read_trace(args.trace)
    detector = DetectorXapp()
    detector.swap_model(model)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "detections.csv"
    n = write_detections(out_path, (detector.infer(s.public()) for s in samples))
    print(f"wrote {n} detections to {out_path}")
    return EXIT_OK


def cmd_deploy(args, cfg) -> int:
    model = mlp.load(args.model)
    registry_dir = args.registry or (args.out / "models")
    registry = ModelRegistry(registry_dir)
    deployed = registry.deployed_entry()
    if deployed is not None and model.version <= deployed.version:
        print(f"error: version {model.version} not newer than deployed "
              f"{deployed.version}", file=sys.stderr)
        return EXIT_FAILURE
    entry = registry.register(args.model, model.version, {"source": "manual deploy"})
    registry.mark_deployed(model.version)
    print(f"registered and marked deployed: version {model.version} at {entry.path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name in INPUT_FILES.get(args.command, ()):
        path = getattr(args, name)
        if not path.is_file():
            problem = "is not a file" if path.exists() else "not found"
            print(f"error: {name} file {path} {problem}", file=sys.stderr)
            return EXIT_USAGE
    handlers = {
        "simulate": cmd_simulate,
        "eval-labeler": cmd_eval_labeler,
        "run-experiment": cmd_run_experiment,
        "replay": cmd_replay,
        "deploy": cmd_deploy,
    }
    try:
        return handlers[args.command](args, cfg)
    except (ScheduleError, SchemaError, ConfigError, mlp.ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExperimentError, ManagerError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
