"""Two-arm evaluation: static offline-trained detector vs the closed loop.

Arm A trains one model on the labeler's output over an early slice of the
schedule and never retrains. Arm B runs the full closed loop from a cold
start. Both arms consume the identical synthesized sample sequence;
per-window accuracy against ground truth is the comparison the report and
CSV artifacts carry.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import mlp
from .detector import DetectorXapp
from .labeler import LabelerConfig, run_labeler
from .manager import ClosedLoop, LoopConfig, ModelRegistry
from .scenarios import (ChannelParams, KpiSample, ScenarioSchedule, Segment,
                        schedule_from_ids, synth_stream)
from .store import LABEL_INTERFERENCE, TelemetryStore


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
    window_map: list[WindowSpec] | None = None
    output_dir: Path | None = None
    channel: ChannelParams = field(default_factory=ChannelParams)
    labeler: LabelerConfig = field(default_factory=LabelerConfig)
    loop: LoopConfig = field(default_factory=LoopConfig)

    def resolved_window_map(self) -> list[WindowSpec]:
        if self.window_map is not None:
            covered = [p for w in self.window_map for p in w.scenario_positions]
            if sorted(covered) != list(range(len(self.schedule.entries))):
                raise ExperimentError(
                    "window_map must cover every schedule entry exactly once")
            return self.window_map
        return default_window_map(self.schedule)


def default_window_map(schedule: ScenarioSchedule) -> list[WindowSpec]:
    """Pair consecutive entries into windows, one pass label per schedule repeat.

    Windows are labeled 1a, 1b, ... for the first pass over the catalog,
    2a, 2b, ... for the second, matching paired ON/OFF scenes.
    """
    n = len(schedule.entries)
    windows: list[WindowSpec] = []
    pass_no = 1
    letter = 0
    first_id = schedule.entries[0].id
    i = 0
    while i < n:
        if i > 0 and schedule.entries[i].id == first_id:
            pass_no += 1
            letter = 0
        positions = [i] if i + 1 >= n else [i, i + 1]
        if len(positions) == 2 and schedule.entries[i + 1].id == first_id and i + 1 > 0:
            positions = [i]
        windows.append(WindowSpec(label=f"{pass_no}{chr(ord('a') + letter)}",
                                  scenario_positions=positions))
        letter += 1
        i += len(positions)
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


def _accuracy(verdicts: dict[int, str], samples: list[KpiSample],
              start: int, end: int) -> float:
    n = 0
    hits = 0
    for s in samples[start:end + 1]:
        v = verdicts.get(s.seq)
        n += 1
        truth = LABEL_INTERFERENCE if s.truth_interference else "CLEAN"
        if v == truth:
            hits += 1
    return hits / n if n else 0.0


def labeler_accuracy_by_scenario(samples: list[KpiSample], labels: dict[int, str],
                                 segments: list[Segment],
                                 transition_halfwidth: int = 2
                                 ) -> list[ScenarioLabelAccuracy]:
    out = []
    for pos, seg in enumerate(segments):
        n = hits = n_ex = hits_ex = 0
        for s in samples[seg.start_seq:seg.end_seq + 1]:
            truth = LABEL_INTERFERENCE if s.truth_interference else "CLEAN"
            ok = labels.get(s.seq) == truth
            n += 1
            hits += ok
            near_edge = (s.seq - seg.start_seq < transition_halfwidth
                         or seg.end_seq - s.seq < transition_halfwidth)
            if not near_edge:
                n_ex += 1
                hits_ex += ok
        out.append(ScenarioLabelAccuracy(
            position=pos, scenario_id=seg.scenario_id, event=seg.event,
            accuracy=hits / n if n else 0.0,
            accuracy_transition_excluded=hits_ex / n_ex if n_ex else 0.0))
    return out


def run_experiment(cfg: ExperimentConfig, registry_dir: Path) -> ExperimentReport:
    t0 = time.perf_counter()
    window_map = cfg.resolved_window_map()
    if not 0 < cfg.baseline_train_entries <= len(cfg.schedule.entries):
        raise ExperimentError("baseline_train_entries outside the schedule")

    samples: list[KpiSample] = []
    summary = synth_stream(cfg.schedule, cfg.channel, samples.append)
    segments = summary.segments

    # ---- Arm A: static baseline, trained once on the leading entries ----
    train_end_seq = segments[cfg.baseline_train_entries - 1].end_seq
    store_a = TelemetryStore()
    for s in samples:
        if s.seq <= train_end_seq:
            store_a.append("kpi", s)
    run_labeler(store_a, cfg.labeler)
    pairs = store_a.join_labels()
    dataset = [((s.snr_db, s.bler, float(s.mcs)),
                1 if lab.label == LABEL_INTERFERENCE else 0) for s, lab in pairs]
    try:
        baseline_model, _ = mlp.train(dataset, cfg.loop.train, version=1)
    except mlp.TrainingError as exc:
        raise ExperimentError(f"static baseline training failed: {exc}") from exc
    detector_a = DetectorXapp()
    detector_a.swap_model(baseline_model)
    verdicts_a = {rec.seq: rec.verdict
                  for rec in detector_a.infer_batch([s.public() for s in samples])}

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

    verdicts_b = {r.seq: r.verdict for r in store_b.window("detections")}
    labels_b = {r.seq: r.label for r in store_b.window("labels")}

    windows: list[WindowAccuracy] = []
    for w in window_map:
        segs = [segments[p] for p in w.scenario_positions]
        start = min(s.start_seq for s in segs)
        end = max(s.end_seq for s in segs)
        loop_acc = (_accuracy(verdicts_b, samples, start, end)
                    if verdicts_b else None)
        windows.append(WindowAccuracy(
            label=w.label, scenario_ids=[s.scenario_id for s in segs],
            start_seq=start, end_seq=end, loop_accuracy=loop_acc,
            baseline_accuracy=_accuracy(verdicts_a, samples, start, end)))

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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with (out_dir / "accuracy_by_window.csv").open("w", newline="",
                                                   encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["window", "scenario_ids", "start_seq", "end_seq",
                    "loop_acc", "baseline_acc"])
        for row in report.windows:
            w.writerow([row.label, "+".join(map(str, row.scenario_ids)),
                        row.start_seq, row.end_seq,
                        "" if row.loop_accuracy is None else repr(row.loop_accuracy),
                        repr(row.baseline_accuracy)])

    # gnuplot-friendly: index, label, loop_acc, baseline
    with (out_dir / "accuracy_by_window.dat").open("w", encoding="utf-8") as f:
        f.write("# idx window loop_acc baseline_acc\n")
        for i, row in enumerate(report.windows):
            loop_acc = "nan" if row.loop_accuracy is None else f"{row.loop_accuracy:.6f}"
            f.write(f"{i} {row.label} {loop_acc} {row.baseline_accuracy:.6f}\n")
    (out_dir / "plot_accuracy.gp").write_text(
        'set datafile missing "nan"\n'
        "set yrange [0:1.05]\n"
        "set xlabel 'scenario window'\nset ylabel 'detection accuracy'\n"
        "plot 'accuracy_by_window.dat' using 1:3:xtic(2) with linespoints"
        " title 'adaptive loop', '' using 1:4 with linespoints title 'static baseline'\n",
        encoding="utf-8")

    with (out_dir / "labeler_by_scenario.csv").open("w", newline="",
                                                    encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["position", "scenario_id", "event", "accuracy",
                    "accuracy_transition_excluded"])
        for row in report.labeler_by_scenario:
            w.writerow([row.position, row.scenario_id, row.event,
                        repr(row.accuracy), repr(row.accuracy_transition_excluded)])

    with (out_dir / "transcript.jsonl").open("w", encoding="utf-8") as f:
        for ev in report.transcript:
            f.write(json.dumps(ev) + "\n")

    (out_dir / "report.json").write_text(json.dumps({
        "n_samples": report.n_samples,
        "stream_digest": report.stream_digest,
        "first_deploy_seq": report.first_deploy_seq,
        "runtime_s": report.runtime_s,
    }, indent=1), encoding="utf-8")
