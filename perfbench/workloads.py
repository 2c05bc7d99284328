"""The three benchmark workloads, driven only through jamloop's public API.

Each workload is a closed loop with one feeder: the next sample or command
is handed over only after the previous call returns. ``setup`` builds the
inputs from the seed (untimed by the workload itself, timed as ``setup_s``
by the runner); ``run`` performs one timed repetition in a fresh directory
and checks its outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# entry points are called through their modules (cli.main, experiment.run_experiment)
# so that the tracer's replacement on the module is the one called
from jamloop import cli, experiment, mlp
from jamloop.detector import DetectorXapp
from jamloop.experiment import default_experiment_config, labeler_accuracy_by_scenario
from jamloop.labeler import LabelerConfig, run_labeler
from jamloop.manager import ClosedLoop, LoopConfig, ModelRegistry
from jamloop.scenarios import SCENARIO_CATALOG, schedule_from_ids, synth_stream
from jamloop.store import LABEL_INTERFERENCE, TelemetryStore
from speed import Speedometer

CATALOG_IDS = list(range(1, 19))


@dataclass
class RepResult:
    """One timed repetition: its timings, behaviour and output checks."""
    wall_s: float = 0.0  # as measured, reference kernels excluded
    ref_wall_s: float = 0.0  # wall_s at the reference speed (see speed.py)
    kernel_p50_us: float = 0.0  # median time of the reference kernel
    n_samples: int = 0
    ops: int = 0  # samples ingested plus CLI commands
    ingest_s: list[float] = field(default_factory=list)  # per-sample call durations
    ingest_t0: list[float] = field(default_factory=list)  # and their start times
    ingest_ref_s: list[float] = field(default_factory=list)  # at the reference speed
    checks: dict[str, bool] = field(default_factory=dict)
    first_deploy_seq: int | None = None
    loop_acc: float = 0.0
    labeler_acc: float = 0.0
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> sha256
    peak_rss_mb: float = 0.0  # of the process, when this repetition ended


def _digest(samples) -> str:
    """sha256 over samples in the format of ``ExperimentReport.stream_digest``."""
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.seq},{s.ts_ms},{s.snr_db!r},{s.mcs},{s.bler!r},"
                 f"{int(s.truth_interference)};".encode("ascii"))
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the values at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def _timed_method(cls, name: str, res: RepResult, seen: list | None = None):
    """Put one perf_counter pair around ``cls.name`` (and nothing else)."""
    orig = vars(cls)[name]
    perf = time.perf_counter
    starts, durations = res.ingest_t0, res.ingest_s

    def timed(self, arg):
        t0 = perf()
        out = orig(self, arg)
        durations.append(perf() - t0)
        starts.append(t0)
        if seen is not None:
            seen.append(arg)
        return out
    setattr(cls, name, timed)
    try:
        yield
    finally:
        setattr(cls, name, orig)


@contextlib.contextmanager
def _wall(res: RepResult, tracer=None):
    """Time the workload's measured region into ``res``, traced if asked."""
    if tracer is not None:
        tracer.install()
    speed = Speedometer(enabled=tracer is None)
    speed.start()
    try:
        yield
    finally:
        speed.stop()
        res.wall_s, res.ref_wall_s = speed.raw_s, speed.ref_s
        res.kernel_p50_us = speed.kernel_p50_us
        res.ingest_ref_s = speed.scaled(res.ingest_t0, res.ingest_s)
        if tracer is not None:
            tracer.uninstall()


def _first_deploy_seq(transcript: list[dict]) -> int | None:
    for ev in transcript:
        if ev["event"] == "deploy" and ev["deployed"]:
            return ev["kpi_high_seq"]
    return None


class Catalog2x:
    """``run_experiment`` on the 18-scenario catalog, two passes, with artifacts.

    The loop refits at every drift check. With the default drift threshold the
    number of fits, and so the run time, changes several-fold from seed to seed.
    """

    name = "catalog2x"
    SAMPLES_PER_SCENARIO = 100
    LOOP = LoopConfig(monitor_window=400,
                      drift_threshold=1.01)  # above any agreement: every check refits

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.samples_per_scenario = 30 if smoke else self.SAMPLES_PER_SCENARIO
        self.cfg = default_experiment_config(seed, self.samples_per_scenario, passes=2)
        self.cfg.loop = self.LOOP
        self.expected_samples = len(CATALOG_IDS) * 2 * self.samples_per_scenario

    def run(self, rep_dir: Path, tracer=None) -> RepResult:
        res = RepResult()
        fed: list = []
        self.cfg.output_dir = rep_dir / "out"
        with _timed_method(ClosedLoop, "process", res, fed), _wall(res, tracer):
            report = experiment.run_experiment(self.cfg,
                                               registry_dir=rep_dir / "out" / "models")
        res.n_samples = res.ops = len(fed)
        res.checks["stream_digest"] = _digest(fed) == report.stream_digest
        res.checks["n_samples"] = report.n_samples == self.expected_samples == len(fed)
        res.artifacts = {p.name: _sha256_file(p)
                         for p in sorted(self.cfg.output_dir.glob("*.csv"))}
        res.checks["csv_artifacts"] = len(res.artifacts) == 2

        res.first_deploy_seq = report.first_deploy_seq
        post = [w for w in report.windows
                if report.first_deploy_seq is not None
                and w.start_seq > report.first_deploy_seq and w.loop_accuracy is not None]
        n_post = sum(w.end_seq - w.start_seq + 1 for w in post)
        res.loop_acc = (sum(w.loop_accuracy * (w.end_seq - w.start_seq + 1) for w in post)
                        / n_post if n_post else 0.0)
        rows = report.labeler_by_scenario
        res.labeler_acc = sum(r.accuracy for r in rows) / len(rows)
        return res


class Steady:
    """``ClosedLoop`` over alternating OFF/ON segments that do not align with windows."""

    name = "steady"
    SEGMENT_SAMPLES = 1050  # not a multiple of the 100-sample labeler window
    SEGMENTS = 20

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        n_segments = 4 if smoke else self.SEGMENTS
        schedule = schedule_from_ids([2, 3] * (n_segments // 2), seed,
                                     duration_samples=self.SEGMENT_SAMPLES)
        self.samples: list = []
        self.segments = synth_stream(schedule, sink=self.samples.append).segments

    def run(self, rep_dir: Path, tracer=None) -> RepResult:
        res = RepResult()
        store = TelemetryStore()
        loop = ClosedLoop(store, DetectorXapp(), ModelRegistry(rep_dir / "models"),
                          LabelerConfig(), LoopConfig())
        starts, durations = res.ingest_t0, res.ingest_s
        perf = time.perf_counter
        with _wall(res, tracer):
            for s in self.samples:
                t = perf()
                loop.process(s)
                durations.append(perf() - t)
                starts.append(t)
            transcript = loop.close()
        res.ops = len(durations)
        n = res.n_samples = len(self.samples)

        dets = store.window("detections", 0, n - 1)
        res.checks["one_detection_per_seq"] = (
            store.count("detections") == n and [d.seq for d in dets] == list(range(n)))
        res.checks["model_version_monotonic"] = all(
            a.model_version <= b.model_version for a, b in zip(dets, dets[1:]))

        res.first_deploy_seq = fds = _first_deploy_seq(transcript)
        verdicts = {d.seq: d.verdict for d in dets}
        post = [s for s in self.samples if fds is not None and s.seq > fds]
        res.loop_acc = (sum(verdicts.get(s.seq) == _truth(s) for s in post) / len(post)
                        if post else 0.0)
        labels = {r.seq: r.label for r in store.window("labels", 0, n - 1)}
        rows = labeler_accuracy_by_scenario(self.samples, labels, self.segments)
        res.labeler_acc = sum(r.accuracy for r in rows) / len(rows)
        return res


class TraceIo:
    """``cli.main`` for simulate, eval-labeler and replay over a 36,000-sample trace."""

    name = "trace_io"
    REPLAY_TRAIN_IDS = CATALOG_IDS[:6]  # like the static arm of run_experiment
    SAMPLES_PER_SCENARIO = 1000

    def setup(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        duration = 100 if smoke else self.SAMPLES_PER_SCENARIO
        ids = CATALOG_IDS * 2
        self.schedule_path = workdir / "schedule.yaml"
        self.schedule_path.write_text(
            "entries:\n" + "".join(f"  - {{id: {i}, duration_samples: {duration}}}\n"
                                   for i in ids), encoding="utf-8")
        self.expected_samples = len(ids) * duration
        events = [SCENARIO_CATALOG[i].event for i in ids]
        self.expected_segments = 1 + sum(a != b for a, b in zip(events, events[1:]))

        # the replay model: trained on the labeler's view of a short catalog slice
        store = TelemetryStore()
        synth_stream(schedule_from_ids(self.REPLAY_TRAIN_IDS, seed, 300),
                     sink=lambda s: store.append("kpi", s))
        run_labeler(store)
        dataset = [((s.snr_db, s.bler, float(s.mcs)),
                    1 if lab.label == LABEL_INTERFERENCE else 0)
                   for s, lab in store.join_labels()]
        model, _ = mlp.train(dataset, LoopConfig().train, version=1)
        self.model_path = workdir / "replay.model"
        mlp.save(model, self.model_path)

    def run(self, rep_dir: Path, tracer=None) -> RepResult:
        res = RepResult()
        out = rep_dir / "out"
        trace = out / "trace.jsonl"
        common = ["--seed", str(self.seed), "--out", str(out)]
        commands = {
            "simulate": ["simulate", "--schedule", str(self.schedule_path), "--with-truth"],
            "eval_labeler": ["eval-labeler", "--trace", str(trace)],
            "replay": ["replay", "--trace", str(trace), "--model", str(self.model_path)],
        }
        codes = {}
        with _timed_method(DetectorXapp, "infer", res), \
                contextlib.redirect_stdout(sys.stderr), _wall(res, tracer):
            for name, argv in commands.items():
                codes[name] = cli.main(common + argv)
        res.ops = len(codes)
        res.n_samples = self.expected_samples
        for name, code in codes.items():
            res.checks[f"{name}_exit_0"] = code == 0

        with trace.open(encoding="utf-8") as f:
            truth = [json.loads(line)["truth"] for line in f]
        with (out / "detections.csv").open(newline="", encoding="utf-8") as f:
            detections = list(csv.DictReader(f))
        with (out / "labeler_accuracy.csv").open(newline="", encoding="utf-8") as f:
            segments = list(csv.DictReader(f))
        res.checks["trace_lines"] = len(truth) == self.expected_samples
        res.checks["detection_per_trace_line"] = len(detections) == len(truth)
        res.checks["row_per_truth_segment"] = len(segments) == self.expected_segments
        hits = sum((d["verdict"] == LABEL_INTERFERENCE) == t
                   for d, t in zip(detections, truth))
        res.loop_acc = hits / len(truth) if truth else 0.0
        res.labeler_acc = (sum(float(r["accuracy"]) for r in segments) / len(segments)
                           if segments else 0.0)
        return res


def _truth(sample) -> str:
    return LABEL_INTERFERENCE if sample.truth_interference else "CLEAN"


WORKLOADS = {w.name: w for w in (Catalog2x, Steady, TraceIo)}
