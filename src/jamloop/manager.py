"""Closed-loop controller: drift monitoring, retraining, gated deployment.

Agreement between deployed-model verdicts and labeler labels is the drift
statistic; a drop below threshold (or a cold start with no model) triggers
a full-history retrain, and the new model is hot-swapped into the detector
only if its holdout accuracy clears the deployment gate. After each
deployment the monitoring window restarts empty so pre-swap disagreement
cannot re-trigger.
"""

from __future__ import annotations

import json
import operator
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import mlp
from .detector import DetectorXapp, StaleVersionError
from .labeler import BaselineState, LabelerConfig, label_window
from .numbers import real, whole
from .store import LABEL_CLEAN, LABEL_INTERFERENCE, TelemetryStore, atomic_writer

TRIGGER_NONE = "NONE"
TRIGGER_LOW_AGREEMENT = "LOW_AGREEMENT"
TRIGGER_NO_MODEL = "NO_MODEL"

DEFAULT_MONITOR_WINDOW = 200
DEFAULT_DRIFT_THRESHOLD = 0.85
DEFAULT_DEPLOY_GATE = 0.90


class ManagerError(Exception):
    pass


@dataclass(frozen=True)
class DriftReport:
    """Agreement over the scored (detection, label) pairs, and its 2x2 make-up.

    tp, fp, fn and tn count the detector's verdicts against the labeler's
    labels, INTERFERENCE being positive: fp is a pair the detector calls
    jammed and the labeler clean.
    """
    window_start_seq: int
    window_end_seq: int
    agreement: float | None
    sample_count: int
    drifted: bool
    trigger_reason: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        if self.drifted != (self.trigger_reason != TRIGGER_NONE):
            raise ValueError("drifted flag must match trigger_reason")


@dataclass
class RegistryEntry:
    version: int
    val_accuracy: float | None  # None for a model registered from outside
    deployed: bool
    created_at: float
    train_report: dict = field(default_factory=dict)


class ModelRegistry:
    """Versioned model artifacts: v<NNN>.model files + registry.jsonl, whose lines name no file."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.entries: list[RegistryEntry] = []
        self._journal = self.directory / "registry.jsonl"
        if self._journal.exists():
            try:
                lines = self._journal.read_text(encoding="utf-8").splitlines()
            except UnicodeDecodeError as exc:
                raise ManagerError(f"{self._journal}: not UTF-8 text ({exc.reason})") from exc
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    self.entries.append(self._parse_entry(line))
                except (ValueError, TypeError) as exc:
                    raise ManagerError(
                        f"{self._journal}:{lineno}: corrupt registry entry: {exc}") from exc

    def _parse_entry(self, line: str) -> RegistryEntry:
        """The entry of the journal line after `self.entries`; an older `path` is ignored."""
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ValueError(f"expected an object, got {type(doc).__name__}")
        doc.pop("path", None)
        e = RegistryEntry(**doc)
        acc, previous = e.val_accuracy, self.next_version() - 1
        if whole(e.version, "version") <= previous:
            raise ValueError(f"version {e.version} is not above {previous}")
        if type(e.deployed) is not bool:
            raise ValueError(f"deployed {e.deployed!r} is not a boolean")
        # at most one line is deployed, so this scans the entries at most once
        if e.deployed and (deployed := self.deployed_entry()):
            raise ValueError(f"version {deployed.version} is deployed already")
        if acc is not None and not 0 <= real(acc, "val_accuracy") <= 1:
            raise ValueError(f"val_accuracy {acc!r} is not in [0, 1]")
        real(e.created_at, "created_at")
        if type(e.train_report) is not dict:
            raise ValueError(f"train_report {e.train_report!r} is not an object")
        return e

    def next_version(self) -> int:
        # versions strictly increase along the journal, so the last is the highest
        return self.entries[-1].version + 1 if self.entries else 1

    def deployed_entry(self) -> RegistryEntry | None:
        return next((e for e in self.entries if e.deployed), None)

    def model_path(self, version: int) -> Path:
        """The file of model `version`."""
        return self.directory / f"v{version:03d}.model"

    def _new_model_path(self, version: int) -> Path:
        """Where model `version` goes; it must be the registry's next version."""
        expected = self.next_version()
        if version != expected:
            raise ManagerError(f"model version {version} does not extend the registry "
                               f"(expected {expected})")
        return self.model_path(version)

    def _append(self, entry: RegistryEntry) -> RegistryEntry:
        # the model file is in place already; it goes if the journal cannot name it
        try:
            self._rewrite_journal([*self.entries, entry])
        except BaseException:
            self.model_path(entry.version).unlink(missing_ok=True)
            raise
        self.entries.append(entry)
        return entry

    def add(self, model: mlp.MlpModel, report: mlp.TrainReport) -> RegistryEntry:
        mlp.save(model, self._new_model_path(model.version))
        return self._append(RegistryEntry(
            version=model.version, val_accuracy=report.val_accuracy,
            deployed=False, created_at=time.time(),
            train_report={"best_epoch": report.best_epoch,
                          "epochs_run": len(report.epoch_loss),
                          "n_train": report.n_train,
                          "n_val": report.n_val,
                          "class_counts": report.class_counts}))

    def register(self, path: str | Path, version: int, train_report: dict) -> RegistryEntry:
        """Copy in a model file trained elsewhere; its holdout accuracy is unknown."""
        shutil.copyfile(path, self._new_model_path(version))
        return self._append(RegistryEntry(
            version=version, val_accuracy=None, deployed=False,
            created_at=time.time(), train_report=train_report))

    def mark_deployed(self, version: int) -> None:
        target = next((e for e in self.entries if e.version == version), None)
        if target is None:
            raise ManagerError(f"version {version} not in registry")
        if target.deployed:
            raise ManagerError(f"version {version} is already deployed")
        # journal first, then the flags: callers hold these entry objects
        self._rewrite_journal([replace(e, deployed=e is target) for e in self.entries])
        for e in self.entries:
            e.deployed = e is target

    def _rewrite_journal(self, entries: list[RegistryEntry]) -> None:
        # a process that dies mid-write leaves the previous journal whole
        with atomic_writer(self._journal) as f:
            for e in entries:
                f.write(json.dumps(e.__dict__, allow_nan=False) + "\n")


def monitor(store: TelemetryStore, window_size: int = DEFAULT_MONITOR_WINDOW,
            threshold: float = DEFAULT_DRIFT_THRESHOLD,
            from_seq: int = 0) -> DriftReport:
    """Agreement over the last `window_size` joined (detection, label) pairs
    from `from_seq` on; reads only those pairs' verdict and label columns,
    however long the history."""
    seqs, verdicts, labels = store.join_verdicts(from_seq=from_seq, last=window_size)
    if not seqs:
        return DriftReport(window_start_seq=from_seq, window_end_seq=from_seq,
                           agreement=None, sample_count=0, drifted=False,
                           trigger_reason=TRIGGER_NONE)
    # every verdict and label is INTERFERENCE or CLEAN, so the agreeing pairs
    # (tp + tn), the jammed verdicts (tp + fp) and the jammed labels (tp + fn)
    # fix the 2x2 counts: their sum is n + 2 tp
    n, agree = len(seqs), sum(map(operator.eq, verdicts, labels))
    jam_verdicts = verdicts.count(LABEL_INTERFERENCE)
    jam_labels = labels.count(LABEL_INTERFERENCE)
    tp = (agree + jam_verdicts + jam_labels - n) // 2
    agreement = agree / n
    drifted = agreement < threshold  # strict: exactly-at-threshold is not drift
    return DriftReport(window_start_seq=seqs[0], window_end_seq=seqs[-1],
                       agreement=agreement, sample_count=n, drifted=drifted,
                       trigger_reason=TRIGGER_LOW_AGREEMENT if drifted else TRIGGER_NONE,
                       tp=tp, fp=jam_verdicts - tp, fn=jam_labels - tp, tn=agree - tp)


def labeled_dataset(pairs) -> list[tuple[tuple[float, float, float], int]]:
    """Training rows from `join_labels` pairs: features (snr, bler, mcs),
    target 1 for an INTERFERENCE label and 0 otherwise."""
    return [((s.snr_db, s.bler, float(s.mcs)), int(lab.label == LABEL_INTERFERENCE))
            for s, lab in pairs]


@dataclass
class RetrainOutcome:
    entry: RegistryEntry | None
    skipped_reason: str | None = None
    history_high_seq: int | None = None


def retrain(store: TelemetryStore, cfg: mlp.TrainConfig,
            registry: ModelRegistry) -> RetrainOutcome:
    """Train a new version on the full labeler-labeled history (never truth)."""
    pairs = store.join_labels()
    if not pairs:
        return RetrainOutcome(entry=None, skipped_reason="no labeled history")
    dataset = labeled_dataset(pairs)
    classes = {y for _, y in dataset}
    if len(classes) < 2:
        return RetrainOutcome(entry=None,
                              skipped_reason="labeled history is single-class",
                              history_high_seq=pairs[-1][0].seq)
    version = registry.next_version()
    try:
        model, report = mlp.train(dataset, cfg, version=version)
    except mlp.TrainingError as exc:
        return RetrainOutcome(entry=None, skipped_reason=str(exc),
                              history_high_seq=pairs[-1][0].seq)
    entry = registry.add(model, report)
    return RetrainOutcome(entry=entry, history_high_seq=pairs[-1][0].seq)


@dataclass
class DeployDecision:
    deployed: bool
    version: int
    reason: str
    receipt: object | None = None


def deploy_if_better(entry: RegistryEntry, detector: DetectorXapp,
                     registry: ModelRegistry,
                     gate: float = DEFAULT_DEPLOY_GATE) -> DeployDecision:
    """Swap the model in iff its holdout accuracy clears the gate."""
    if entry.deployed:
        return DeployDecision(False, entry.version, "already deployed")
    if entry.val_accuracy is None:  # registered from outside: nothing to gate on
        return DeployDecision(False, entry.version, "no holdout accuracy to gate")
    if entry.val_accuracy < gate:
        return DeployDecision(False, entry.version,
                              f"val accuracy {entry.val_accuracy:.3f} below gate {gate}")
    model = mlp.load(registry.model_path(entry.version))
    try:
        receipt = detector.swap_model(model)
    except StaleVersionError as exc:
        return DeployDecision(False, entry.version, f"swap rejected: {exc}")
    registry.mark_deployed(entry.version)
    return DeployDecision(True, entry.version,
                          f"val accuracy {entry.val_accuracy:.3f} >= gate {gate}",
                          receipt=receipt)


@dataclass
class LoopConfig:
    monitor_window: int = DEFAULT_MONITOR_WINDOW
    drift_threshold: float = DEFAULT_DRIFT_THRESHOLD
    deploy_gate: float = DEFAULT_DEPLOY_GATE
    train: mlp.TrainConfig = field(default_factory=mlp.TrainConfig)

    def validate(self) -> None:
        if self.monitor_window < 1:
            raise ValueError("monitor_window must be >= 1")
        # above 1 is valid: no agreement reaches it, so every monitor check refits
        if not self.drift_threshold >= 0:
            raise ValueError("drift_threshold must be >= 0")
        if not 0 <= self.deploy_gate <= 1:
            raise ValueError("deploy_gate must be in [0, 1]")
        self.train.validate()


class ClosedLoop:
    """Drives labeler, detector, and training manager over a sample feed.

    Feed samples one at a time with process(). At each full labeler window
    the loop first detects every sample not yet detected, in one batch, then
    labels the window, and monitors/retrains every monitor_window newly
    labeled pairs. A swap happens only in that last step, so each sample
    meets the model that was deployed when it arrived; samples that arrive
    before any model is deployed wait for the first one. A window's
    detections go to the store as columns in one `extend_columns` call, and
    its labels in one `extend` call. All events land in the transcript.
    """

    def __init__(self, store: TelemetryStore, detector: DetectorXapp,
                 registry: ModelRegistry, labeler_cfg: LabelerConfig | None = None,
                 loop_cfg: LoopConfig | None = None) -> None:
        self.store = store
        self.detector = detector
        self.registry = registry
        self.labeler_cfg = labeler_cfg or LabelerConfig()
        self.cfg = loop_cfg or LoopConfig()
        self.labeler_cfg.validate()  # fail here, not at the first window or fit
        self.cfg.validate()
        self.baseline = BaselineState()
        self.transcript: list[dict] = []
        self._window_buf: list = []
        self._labeled_since_check = 0
        self._monitor_from_seq = 0
        self._pending: list = []  # samples not yet detected

    def _log(self, event: str, **fields) -> None:
        self.transcript.append({"event": event, **fields})

    def _flush_pending_detections(self) -> None:
        if self.detector.deployed_version is None:
            return
        seqs, probs, verdicts, version = self.detector.score_batch(self._pending)
        self.store.extend_columns("detections", seqs, probs, verdicts, [version] * len(seqs))
        self._pending.clear()

    def process(self, kpi_sample) -> None:
        """Ingest one KPI sample through the whole loop."""
        self.store.append("kpi", kpi_sample)
        self._window_buf.append(kpi_sample.public())  # truth never crosses this line
        if len(self._window_buf) >= self.labeler_cfg.window_size:
            self._label_buffer()

    def close(self) -> list[dict]:
        """Flush the partial final window and return the transcript."""
        if self._window_buf:
            self._label_buffer()
        self._log("close", kpi_count=self.store.count("kpi"),
                  label_count=self.store.count("labels"),
                  detection_count=self.store.count("detections"))
        return self.transcript

    def _label_buffer(self) -> None:
        self._pending.extend(self._window_buf)
        self._flush_pending_detections()
        labels, self.baseline = label_window(self._window_buf, self.baseline,
                                             self.labeler_cfg)
        self.store.extend("labels", labels)
        self._labeled_since_check += len(labels)
        self._window_buf = []
        if self._labeled_since_check >= self.cfg.monitor_window:
            self._labeled_since_check = 0
            self._check_loop()

    def _check_loop(self) -> None:
        if self.detector.deployed_version is None:
            report = DriftReport(window_start_seq=self._monitor_from_seq,
                                 window_end_seq=self.store.max_seq("labels") or 0,
                                 agreement=None, sample_count=0, drifted=True,
                                 trigger_reason=TRIGGER_NO_MODEL)
        else:
            report = monitor(self.store, self.cfg.monitor_window,
                             self.cfg.drift_threshold, from_seq=self._monitor_from_seq)
        self._log("drift_report", **vars(report))
        if not report.drifted:
            return
        outcome = retrain(self.store, self.cfg.train, self.registry)
        if outcome.entry is None:
            self._log("retrain_skipped", reason=outcome.skipped_reason,
                      history_high_seq=outcome.history_high_seq)
            return
        fit = outcome.entry.train_report
        self._log("retrain", version=outcome.entry.version,
                  val_accuracy=outcome.entry.val_accuracy,
                  history_high_seq=outcome.history_high_seq,
                  n_rows=fit["n_train"] + fit["n_val"], best_epoch=fit["best_epoch"])
        decision = deploy_if_better(outcome.entry, self.detector, self.registry,
                                    self.cfg.deploy_gate)
        self._log("deploy", deployed=decision.deployed, version=decision.version,
                  reason=decision.reason,
                  seq_boundary=(decision.receipt.seq_boundary
                                if decision.receipt else None),
                  kpi_high_seq=self.store.max_seq("kpi"))
        if decision.deployed:
            self._flush_pending_detections()
            # cooldown: restart monitoring after the swap boundary
            self._monitor_from_seq = (self.store.max_seq("detections") or 0) + 1
