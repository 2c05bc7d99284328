"""Append-only in-memory telemetry store with windowed queries and file I/O.

Three fixed streams wire the closed loop together: `kpi` (raw samples),
`labels` (labeler verdicts), `detections` (deployed-model outputs).
Records are immutable, keyed by seq, and never overwritten; duplicate
seqs are rejected so replays surface loudly instead of merging silently.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass
from pathlib import Path

from .scenarios import KpiSample

LABEL_CLEAN = "CLEAN"
LABEL_INTERFERENCE = "INTERFERENCE"
LABEL_UNLABELED = "UNLABELED"

SOURCE_LABELER = "LABELER"
SOURCE_GROUND_TRUTH = "GROUND_TRUTH"

DEFAULT_MAX_RECORDS = 1_000_000

KPI_CSV_COLUMNS = ["seq", "ts_ms", "snr_db", "mcs", "bler", "truth"]
LABEL_CSV_COLUMNS = ["seq", "label", "confidence", "source"]
DETECTION_CSV_COLUMNS = ["seq", "prob", "verdict", "model_version", "latency_us"]


class StoreError(Exception):
    pass


class UnknownStreamError(StoreError):
    pass


class DuplicateSeqError(StoreError):
    pass


class RecordInvalidError(StoreError):
    pass


class StoreFullError(StoreError):
    pass


class SchemaError(StoreError):
    pass


@dataclass(frozen=True)
class LabeledSample:
    seq: int
    label: str  # CLEAN | INTERFERENCE | UNLABELED
    confidence: float
    source: str = SOURCE_LABELER

    def validate(self) -> None:
        if self.label not in (LABEL_CLEAN, LABEL_INTERFERENCE, LABEL_UNLABELED):
            raise RecordInvalidError(f"unknown label {self.label!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise RecordInvalidError(f"confidence {self.confidence} outside [0,1]")
        if (self.label == LABEL_UNLABELED) != (self.confidence == 0.0):
            raise RecordInvalidError("confidence must be 0 exactly for UNLABELED labels")
        if self.source not in (SOURCE_LABELER, SOURCE_GROUND_TRUTH):
            raise RecordInvalidError(f"unknown label source {self.source!r}")


@dataclass(frozen=True)
class DetectionRecord:
    seq: int
    prob: float
    verdict: str  # CLEAN | INTERFERENCE
    model_version: int
    latency_us: int

    def validate(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise RecordInvalidError(f"prob {self.prob} outside [0,1]")
        if self.verdict not in (LABEL_CLEAN, LABEL_INTERFERENCE):
            raise RecordInvalidError(f"unknown verdict {self.verdict!r}")
        if self.model_version < 0:
            raise RecordInvalidError("model_version must be non-negative")
        if self.latency_us < 0:
            raise RecordInvalidError("latency_us must be non-negative")


def _validate_kpi(s: KpiSample) -> None:
    if not 0.0 <= s.bler <= 1.0:
        raise RecordInvalidError(f"bler {s.bler} outside [0,1]")
    if not 0 <= s.mcs <= 28:
        raise RecordInvalidError(f"mcs {s.mcs} outside 0..28")
    if s.seq < 0:
        raise RecordInvalidError("seq must be non-negative")


class _Stream:
    def __init__(self) -> None:
        self.records: list = []
        self.by_seq: dict[int, int] = {}
        self.lock = threading.Lock()


class TelemetryStore:
    """In-memory append-only store; safe for concurrent appenders/readers."""

    STREAMS = ("kpi", "labels", "detections")

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self._streams: dict[str, _Stream] = {name: _Stream() for name in self.STREAMS}

    def _stream(self, name: str) -> _Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise UnknownStreamError(f"unknown stream {name!r}") from None

    def create_stream(self, name: str) -> None:
        if name not in self._streams:
            self._streams[name] = _Stream()

    def count(self, stream: str) -> int:
        return len(self._stream(stream).records)

    def append(self, stream: str, record) -> int:
        """Append one validated record; returns the stream count after append."""
        if isinstance(record, KpiSample):
            _validate_kpi(record)
        elif isinstance(record, (LabeledSample, DetectionRecord)):
            record.validate()
        else:
            raise RecordInvalidError(f"unsupported record type {type(record).__name__}")
        st = self._stream(stream)
        with st.lock:
            if len(st.records) >= self.max_records:
                raise StoreFullError(
                    f"stream {stream!r} reached max_records={self.max_records}")
            if record.seq in st.by_seq:
                raise DuplicateSeqError(f"stream {stream!r} already holds seq {record.seq}")
            st.by_seq[record.seq] = len(st.records)
            st.records.append(record)
            return len(st.records)

    def window(self, stream: str, from_seq: int, to_seq: int) -> list:
        """All records with seq in [from_seq, to_seq], ordered by seq."""
        if from_seq > to_seq:
            raise ValueError("from_seq must be <= to_seq")
        st = self._stream(stream)
        with st.lock:
            snapshot = list(st.records)
        out = [r for r in snapshot if from_seq <= r.seq <= to_seq]
        out.sort(key=lambda r: r.seq)
        return out

    def max_seq(self, stream: str) -> int | None:
        st = self._stream(stream)
        with st.lock:
            if not st.records:
                return None
            return max(st.by_seq)

    def join_labels(self, samples: str = "kpi", labels: str = "labels",
                    from_seq: int = 0, to_seq: int | None = None
                    ) -> list[tuple[KpiSample, LabeledSample]]:
        """Inner join of samples and labels on seq; unlabeled pairs excluded."""
        if to_seq is None:
            hi = self.max_seq(samples)
            to_seq = hi if hi is not None else 0
        sample_rows = self.window(samples, from_seq, to_seq)
        label_rows = {r.seq: r for r in self.window(labels, from_seq, to_seq)}
        out = []
        for s in sample_rows:
            lab = label_rows.get(s.seq)
            if lab is not None and lab.label != LABEL_UNLABELED:
                out.append((s, lab))
        return out

    def join_detections(self, detections: str = "detections", labels: str = "labels",
                        from_seq: int = 0, to_seq: int | None = None
                        ) -> list[tuple[DetectionRecord, LabeledSample]]:
        if to_seq is None:
            hi = self.max_seq(detections)
            to_seq = hi if hi is not None else 0
        det_rows = self.window(detections, from_seq, to_seq)
        label_rows = {r.seq: r for r in self.window(labels, from_seq, to_seq)}
        out = []
        for d in det_rows:
            lab = label_rows.get(d.seq)
            if lab is not None and lab.label != LABEL_UNLABELED:
                out.append((d, lab))
        return out

    # ---- persistence ----

    def export(self, stream: str, path: str | Path, fmt: str = "JSONL",
               with_truth: bool = True) -> int:
        """Write a stream to disk; returns the record count written."""
        records = self.window(stream, 0, self.max_seq(stream) or 0) if self.count(stream) else []
        path = Path(path)
        fmt = fmt.upper()
        if fmt == "JSONL":
            with path.open("w", encoding="utf-8") as f:
                for r in records:
                    f.write(json.dumps(_to_wire(r, with_truth)) + "\n")
        elif fmt == "CSV":
            cols = _csv_columns(records[0] if records else _stream_default_type(stream),
                                with_truth)
            with path.open("w", encoding="utf-8", newline="") as f:
                w = csv.writer(f)
                w.writerow(cols)
                for r in records:
                    wire = _to_wire(r, with_truth)
                    w.writerow([_fmt_cell(wire[c]) for c in cols])
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        return len(records)

    def import_file(self, path: str | Path, fmt: str = "JSONL",
                    stream: str | None = None) -> str:
        """Read a file into a stream (inferred from its columns if not given)."""
        path = Path(path)
        rows: list[dict] = []
        fmt = fmt.upper()
        if fmt == "JSONL":
            with path.open("r", encoding="utf-8") as f:
                for i, line in enumerate(f):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rows.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        raise SchemaError(f"{path}:{i + 1}: invalid JSON: {exc}") from exc
        elif fmt == "CSV":
            with path.open("r", encoding="utf-8", newline="") as f:
                rows = list(csv.DictReader(f))
        else:
            raise ValueError(f"unknown import format {fmt!r}")
        if stream is None:
            stream = _infer_stream(rows)
        self.create_stream(stream)
        for row in rows:
            self.append(stream, _from_wire(row, stream, path))
        return stream


def _stream_default_type(stream: str):
    if stream == "labels":
        return LabeledSample(0, LABEL_CLEAN, 1.0)
    if stream == "detections":
        return DetectionRecord(0, 0.5, LABEL_INTERFERENCE, 1, 0)
    return KpiSample(0, 0, 0.0, 0, 0.0, False)


def _csv_columns(record, with_truth: bool) -> list[str]:
    if isinstance(record, KpiSample):
        return KPI_CSV_COLUMNS if with_truth else KPI_CSV_COLUMNS[:-1]
    if isinstance(record, LabeledSample):
        return LABEL_CSV_COLUMNS
    return DETECTION_CSV_COLUMNS


def _fmt_cell(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return repr(v)  # shortest round-trip representation
    return v


def _to_wire(record, with_truth: bool = True) -> dict:
    if isinstance(record, KpiSample):
        d = {"seq": record.seq, "ts_ms": record.ts_ms, "snr_db": record.snr_db,
             "mcs": record.mcs, "bler": record.bler}
        if with_truth:
            d["truth"] = record.truth_interference
        return d
    if isinstance(record, LabeledSample):
        return {"seq": record.seq, "label": record.label,
                "confidence": record.confidence, "source": record.source}
    if isinstance(record, DetectionRecord):
        return {"seq": record.seq, "prob": record.prob, "verdict": record.verdict,
                "model_version": record.model_version, "latency_us": record.latency_us}
    raise RecordInvalidError(f"unsupported record type {type(record).__name__}")


def _infer_stream(rows: list[dict]) -> str:
    if not rows:
        return "kpi"
    keys = set(rows[0])
    if "label" in keys:
        return "labels"
    if "verdict" in keys:
        return "detections"
    return "kpi"


_KPI_KEYS = set(KPI_CSV_COLUMNS)
_LABEL_KEYS = set(LABEL_CSV_COLUMNS)
_DET_KEYS = set(DETECTION_CSV_COLUMNS)


def _from_wire(row: dict, stream: str, path: Path):
    expected = {"labels": _LABEL_KEYS, "detections": _DET_KEYS}.get(stream, _KPI_KEYS)
    unknown = set(row) - expected
    if unknown:
        raise SchemaError(f"{path}: unknown column(s) {sorted(unknown)} for stream {stream!r}")
    try:
        if stream == "labels":
            return LabeledSample(seq=int(row["seq"]), label=str(row["label"]),
                                 confidence=float(row["confidence"]),
                                 source=str(row["source"]))
        if stream == "detections":
            return DetectionRecord(seq=int(row["seq"]), prob=float(row["prob"]),
                                   verdict=str(row["verdict"]),
                                   model_version=int(row["model_version"]),
                                   latency_us=int(row["latency_us"]))
        truth = row.get("truth", False)
        if isinstance(truth, str):
            truth = truth.strip() in ("1", "true", "True")
        return KpiSample(seq=int(row["seq"]), ts_ms=int(row["ts_ms"]),
                         snr_db=float(row["snr_db"]), mcs=int(row["mcs"]),
                         bler=float(row["bler"]), truth_interference=bool(truth))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad row {row!r}: {exc}") from exc
