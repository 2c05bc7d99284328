"""Command-line entry points: simulate, eval-labeler, run-experiment, replay, deploy.

Exit codes: 0 success, 1 experiment-level failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import operator
import sys
from pathlib import Path

import numpy as np

from . import mlp
from .config import ConfigError, load_config
from .detector import DetectorXapp
from .experiment import (ARTIFACTS, ExperimentError, default_experiment_config,
                         labeler_accuracy_by_scenario, run_experiment)
from .labeler import label_stream
from .manager import ManagerError, ModelRegistry
from .scenarios import KpiSample, ScheduleError, Segment, load_schedule, synth_stream
from .store import (LABEL_CLEAN, LABEL_INTERFERENCE, SchemaError, StoreError, atomic_writer,
                    read_trace, trace_line, write_detections)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_SNR_DB = operator.attrgetter("snr_db")
_TRUTH = operator.attrgetter("truth_interference")

# per command, the arguments that name an input file
INPUT_FILES = {"simulate": ("schedule",), "eval-labeler": ("trace",),
               "replay": ("model", "trace"), "deploy": ("model",)}
# per command, the files it writes under --out
OUTPUT_FILES = {"simulate": ("trace.jsonl",), "eval-labeler": ("labeler_accuracy.csv",),
                "replay": ("detections.csv",), "run-experiment": ARTIFACTS}


def registry_dir(args) -> Path:
    """The model registry `run-experiment` and `deploy` write: `--registry` or <out>/models."""
    return getattr(args, "registry", None) or args.out / "models"


def seed(text: str) -> int:
    """A `--seed` value: numpy's generators take only whole numbers >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed {text} is below 0")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="jamloop",
                                description="Adaptive uplink jamming detection loop")
    p.add_argument("--config", type=Path, default=None, help="global YAML config file")
    p.add_argument("--seed", type=seed, default=1, help="master RNG seed")
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
    # a run that fails part way leaves no partial trace, and an earlier trace whole
    with atomic_writer(trace_path) as f:
        def sink(s: KpiSample) -> tuple[str, str]:
            reprs = repr(s.snr_db), repr(s.bler)  # the digest reuses them
            f.write(trace_line(s, args.with_truth, reprs) + "\n")
            return reprs
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

    samples.sort(key=operator.attrgetter("seq"))  # read_trace keeps file order
    # the labeler sees the SNR column only, so it cannot read truth
    jammed = label_stream(np.fromiter(map(_SNR_DB, samples), float, len(samples)),
                          cfg.labeler.window_size)
    labels = {s.seq: LABEL_INTERFERENCE if jam else LABEL_CLEAN
              for s, jam in zip(samples, jammed.tolist())}

    # the trace names no scenarios: a segment is a run of constant truth in seq order
    segments: list[Segment] = []
    for truth, run in itertools.groupby(samples, key=_TRUTH):
        run = list(run)
        segments.append(Segment(scenario_id=len(segments) + 1, event="ON" if truth else "OFF",
                                start_seq=run[0].seq, end_seq=run[-1].seq))
    rows = labeler_accuracy_by_scenario(samples, labels, segments,
                                        cfg.labeler.smoothing_halfwidth)
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "labeler_accuracy.csv"
    with atomic_writer(out_path) as f:
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
    report = run_experiment(exp, registry_dir=registry_dir(args))
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
    # `infer` is looked up here, once per run, and still called once per sample
    n = write_detections(out_path, map(detector.infer, map(KpiSample.public, samples)))
    print(f"wrote {n} detections to {out_path}")
    return EXIT_OK


def cmd_deploy(args, cfg) -> int:
    model = mlp.load(args.model)
    registry = ModelRegistry(registry_dir(args))
    # register takes only the next version, which is above the deployed one
    registry.register(args.model, model.version, {"source": "manual deploy"})
    registry.mark_deployed(model.version)
    print(f"registered and marked deployed: version {model.version} "
          f"at {registry.model_path(model.version)}")
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
    # the deepest directory the command writes into: mkdir fails at its nearest existing path
    out_name = "registry" if getattr(args, "registry", None) else "out"
    out_dir = registry_dir(args) if args.command in ("run-experiment", "deploy") else args.out
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: {out_name} path {existing} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    for path in (args.out / name for name in OUTPUT_FILES.get(args.command, ())):
        if path.is_dir():
            print(f"error: {path} is a directory", file=sys.stderr)
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
    except (ScheduleError, SchemaError, ConfigError, mlp.ModelError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExperimentError, ManagerError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
