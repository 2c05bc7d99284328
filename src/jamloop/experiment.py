"""Two-arm evaluation: static offline-trained detector vs the closed loop.

Arm A trains one model on the offline labeler's output (`label_stream` on
the SNR column) over an early slice of the schedule and never retrains.
Arm B runs the full closed loop from a cold start. Both arms consume the
identical synthesized sample sequence; per-window accuracy against ground
truth is the comparison the report and CSV artifacts carry.
"""

from __future__ import annotations

import bisect
import csv
import json
import operator
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mlp
from .detector import DetectorXapp
from .labeler import LabelerConfig, label_stream
from .manager import ClosedLoop, LoopConfig, ModelRegistry, labeled_dataset
from .scenarios import (ChannelParams, KpiSample, ScenarioSchedule, Segment,
                        schedule_from_ids, synth_stream)
from .store import LABEL_CLEAN, LABEL_INTERFERENCE, TelemetryStore, atomic_writer

_SEQ = operator.attrgetter("seq")
ARTIFACTS = ("accuracy_by_window.csv", "accuracy_by_window.dat", "plot_accuracy.gp",
             "labeler_by_scenario.csv", "transcript.jsonl", "report.json")


class ExperimentError(Exception):
    pass


@dataclass
class WindowSpec:
    label: str
    scenario_positions: list[int]  # indices into schedule.entries


@dataclass
class ExperimentConfig:
    schedule: ScenarioSchedule
    baseline_train_entries: int = 6  # leading schedule entries for Arm A training
    output_dir: Path | None = None
    channel: ChannelParams = field(default_factory=ChannelParams)
    labeler: LabelerConfig = field(default_factory=LabelerConfig)
    loop: LoopConfig = field(default_factory=LoopConfig)


def default_window_map(schedule: ScenarioSchedule) -> list[WindowSpec]:
    """Windows of consecutive entry pairs, labeled by pass and letter.

    A new pass starts wherever the first entry's id recurs. Within a pass
    the entries pair up in order, a trailing odd entry making a window of
    its own; windows are labeled 1a, 1b, ... in the first pass, 2a, 2b, ...
    in the second, matching paired ON/OFF scenes.
    """
    entries = schedule.entries
    starts = [i for i, e in enumerate(entries) if e.id == entries[0].id]
    windows: list[WindowSpec] = []
    for pass_no, (lo, hi) in enumerate(zip(starts, starts[1:] + [len(entries)]), start=1):
        for letter, i in enumerate(range(lo, hi, 2)):
            windows.append(WindowSpec(label=f"{pass_no}{chr(ord('a') + letter)}",
                                      scenario_positions=list(range(i, min(i + 2, hi)))))
    return windows


def default_experiment_config(seed: int, samples_per_scenario: int = 300,
                              passes: int = 2,
                              output_dir: Path | None = None) -> ExperimentConfig:
    ids = list(range(1, 19)) * passes
    schedule = schedule_from_ids(ids, seed=seed,
                                 duration_samples=samples_per_scenario)
    return ExperimentConfig(schedule=schedule, output_dir=output_dir)


@dataclass
class WindowAccuracy:
    label: str
    scenario_ids: list[int]
    start_seq: int
    end_seq: int
    loop_accuracy: float | None
    baseline_accuracy: float


@dataclass
class ScenarioLabelAccuracy:
    position: int
    scenario_id: int
    event: str
    accuracy: float
    accuracy_transition_excluded: float


@dataclass
class ExperimentReport:
    windows: list[WindowAccuracy]
    labeler_by_scenario: list[ScenarioLabelAccuracy]
    first_deploy_seq: int | None
    stream_digest: str
    n_samples: int
    transcript: list[dict]
    runtime_s: float


def _score(verdicts: dict[int, str], samples: list[KpiSample],
           start_seq: int, end_seq: int) -> float:
    """Share of the seq-ordered `samples` with seq in [start_seq, end_seq]
    whose verdict is their truth label; 0.0 when the range holds none."""
    lo = bisect.bisect_left(samples, start_seq, key=_SEQ)
    hi = bisect.bisect_right(samples, end_seq, key=_SEQ)
    hits = sum(verdicts.get(s.seq) == (LABEL_INTERFERENCE if s.truth_interference
                                       else LABEL_CLEAN)
               for s in samples[lo:hi])
    return hits / (hi - lo) if hi > lo else 0.0


def labeler_accuracy_by_scenario(samples: list[KpiSample], labels: dict[int, str],
                                 segments: list[Segment],
                                 transition_halfwidth: int = 2
                                 ) -> list[ScenarioLabelAccuracy]:
    """Labeler accuracy against truth per segment, over all its samples and
    without the `transition_halfwidth` (>= 0) samples at each end.

    `samples` must be in seq order; a segment scores the samples whose seq
    lies in its range, whatever their positions in the list.
    """
    return [ScenarioLabelAccuracy(
        position=pos, scenario_id=seg.scenario_id, event=seg.event,
        accuracy=_score(labels, samples, seg.start_seq, seg.end_seq),
        accuracy_transition_excluded=_score(labels, samples,
                                            seg.start_seq + transition_halfwidth,
                                            seg.end_seq - transition_halfwidth))
        for pos, seg in enumerate(segments)]


def run_experiment(cfg: ExperimentConfig, registry_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    if not 0 < cfg.baseline_train_entries <= len(cfg.schedule.entries):
        raise ExperimentError("baseline_train_entries outside the schedule")

    samples: list[KpiSample] = []
    summary = synth_stream(cfg.schedule, cfg.channel, samples.append)
    segments = summary.segments

    # ---- Arm A: static baseline, trained once on the leading entries ----
    train_end_seq = segments[cfg.baseline_train_entries - 1].end_seq
    train_samples = [s for s in samples if s.seq <= train_end_seq]
    cfg.labeler.validate()
    jammed = label_stream(np.array([s.snr_db for s in train_samples]), cfg.labeler.window_size)
    train_labels = [LABEL_INTERFERENCE if jam else LABEL_CLEAN for jam in jammed.tolist()]
    try:
        baseline_model, _ = mlp.train(labeled_dataset(train_samples, train_labels),
                                      cfg.loop.train, version=1)
    except mlp.TrainingError as exc:
        raise ExperimentError(f"static baseline training failed: {exc}") from exc
    detector_a = DetectorXapp()
    detector_a.swap_model(baseline_model)
    seqs_a, _, verdicts, _ = detector_a.score_batch([s.public() for s in samples])
    verdicts_a = dict(zip(seqs_a, verdicts))

    # ---- Arm B: full closed loop, cold start ----
    store_b = TelemetryStore()
    detector_b = DetectorXapp()
    registry = ModelRegistry(registry_dir)
    loop = ClosedLoop(store_b, detector_b, registry, cfg.labeler, cfg.loop)
    for s in samples:
        loop.process(s)
    transcript = loop.close()

    first_deploy_seq = None
    for ev in transcript:
        if ev["event"] == "deploy" and ev["deployed"]:
            first_deploy_seq = ev["kpi_high_seq"]
            break

    # `close` labels every sample, so these joins read every detection and label
    seqs, (_, verdicts, _), _ = store_b.join("detections")
    verdicts_b = dict(zip(seqs, verdicts))
    seqs, _, labels = store_b.join("kpi")
    labels_b = dict(zip(seqs, labels))

    windows: list[WindowAccuracy] = []
    for w in default_window_map(cfg.schedule):
        segs = [segments[p] for p in w.scenario_positions]
        start, end = segs[0].start_seq, segs[-1].end_seq
        windows.append(WindowAccuracy(
            label=w.label, scenario_ids=[s.scenario_id for s in segs],
            start_seq=start, end_seq=end,
            loop_accuracy=_score(verdicts_b, samples, start, end) if verdicts_b else None,
            baseline_accuracy=_score(verdicts_a, samples, start, end)))

    labeler_rows = labeler_accuracy_by_scenario(
        samples, labels_b, segments, cfg.labeler.smoothing_halfwidth)

    report = ExperimentReport(windows=windows, labeler_by_scenario=labeler_rows,
                              first_deploy_seq=first_deploy_seq, stream_digest=summary.digest,
                              n_samples=len(samples), transcript=transcript,
                              runtime_s=time.perf_counter() - t0)
    if cfg.output_dir is not None:
        write_artifacts(report, cfg.output_dir)
    return report


def write_artifacts(report: ExperimentReport, out_dir: Path) -> None:
    """Write the six `ARTIFACTS` into `out_dir`. The JSON ones are rendered
    before any file is opened, and each file goes through `atomic_writer`,
    so a report that cannot be written leaves an earlier run's files whole."""
    out_dir = Path(out_dir)
    transcript = "".join(json.dumps(ev) + "\n" for ev in report.transcript)
    summary = json.dumps({
        "n_samples": report.n_samples,
        "stream_digest": report.stream_digest,
        "first_deploy_seq": report.first_deploy_seq,
        "runtime_s": report.runtime_s,
    }, indent=1)
    out_dir.mkdir(parents=True, exist_ok=True)

    with atomic_writer(out_dir / "accuracy_by_window.csv") as f:
        w = csv.writer(f)
        w.writerow(["window", "scenario_ids", "start_seq", "end_seq",
                    "loop_acc", "baseline_acc"])
        for row in report.windows:
            w.writerow([row.label, "+".join(map(str, row.scenario_ids)),
                        row.start_seq, row.end_seq,
                        "" if row.loop_accuracy is None else repr(row.loop_accuracy),
                        repr(row.baseline_accuracy)])

    # gnuplot-friendly: index, label, loop_acc, baseline
    with atomic_writer(out_dir / "accuracy_by_window.dat") as f:
        f.write("# idx window loop_acc baseline_acc\n")
        for i, row in enumerate(report.windows):
            loop_acc = "nan" if row.loop_accuracy is None else f"{row.loop_accuracy:.6f}"
            f.write(f"{i} {row.label} {loop_acc} {row.baseline_accuracy:.6f}\n")
    with atomic_writer(out_dir / "plot_accuracy.gp") as f:
        f.write('set datafile missing "nan"\n'
                "set yrange [0:1.05]\n"
                "set xlabel 'scenario window'\nset ylabel 'detection accuracy'\n"
                "plot 'accuracy_by_window.dat' using 1:3:xtic(2) with linespoints"
                " title 'adaptive loop', '' using 1:4 with linespoints title 'static baseline'\n")

    with atomic_writer(out_dir / "labeler_by_scenario.csv") as f:
        w = csv.writer(f)
        w.writerow(["position", "scenario_id", "event", "accuracy",
                    "accuracy_transition_excluded"])
        for row in report.labeler_by_scenario:
            w.writerow([row.position, row.scenario_id, row.event,
                        repr(row.accuracy), repr(row.accuracy_transition_excluded)])

    with atomic_writer(out_dir / "transcript.jsonl") as f:
        f.write(transcript)
    with atomic_writer(out_dir / "report.json") as f:
        f.write(summary)
