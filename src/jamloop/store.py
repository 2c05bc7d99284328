"""Append-only in-memory telemetry store with windowed queries, plus the
JSONL KPI trace reader and the detections CSV writer.

Three fixed streams wire the closed loop together: `kpi` (raw samples),
`labels` (labeler verdicts), `detections` (deployed-model outputs).
Records are immutable, keyed by seq, and never overwritten; duplicate
seqs are rejected so replays surface loudly instead of merging silently.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import operator
import threading
from dataclasses import dataclass
from pathlib import Path

from .scenarios import KpiSample

LABEL_CLEAN = "CLEAN"
LABEL_INTERFERENCE = "INTERFERENCE"

DEFAULT_MAX_RECORDS = 1_000_000

KPI_COLUMNS = ["seq", "ts_ms", "snr_db", "mcs", "bler", "truth"]
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
    label: str  # CLEAN | INTERFERENCE

    def validate(self) -> None:
        if self.label not in (LABEL_CLEAN, LABEL_INTERFERENCE):
            raise RecordInvalidError(f"unknown label {self.label!r}")


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
    if not math.isfinite(s.snr_db):
        raise RecordInvalidError(f"snr_db {s.snr_db} is not finite")
    if not 0.0 <= s.bler <= 1.0:
        raise RecordInvalidError(f"bler {s.bler} outside [0,1]")
    if not 0 <= s.mcs <= 28:
        raise RecordInvalidError(f"mcs {s.mcs} outside 0..28")
    if s.seq < 0:
        raise RecordInvalidError("seq must be non-negative")


def _validate_record(record) -> None:
    """Raise `RecordInvalidError` unless `record` is a valid record of some stream."""
    if isinstance(record, KpiSample):
        _validate_kpi(record)
    elif isinstance(record, (LabeledSample, DetectionRecord)):
        record.validate()
    else:
        raise RecordInvalidError(f"unsupported record type {type(record).__name__}")


_SEQ = operator.attrgetter("seq")


def _bounds(records: list, from_seq: int, to_seq: int | None) -> tuple[int, int]:
    """Index range of the seq-ordered `records` with seq in [from_seq, to_seq]."""
    if to_seq is not None and from_seq > to_seq:
        raise ValueError("from_seq must be <= to_seq")
    lo = bisect.bisect_left(records, from_seq, key=_SEQ)
    hi = len(records) if to_seq is None else bisect.bisect_right(records, to_seq, key=_SEQ)
    return lo, hi


class TelemetryStore:
    """In-memory append-only store; safe for concurrent appenders/readers.

    Each stream is one list kept in seq order. Seqs normally arrive in
    order, so an append is a compare with the last seq, and a window is two
    bisects and a slice; an out-of-order seq is bisected into place.
    """

    STREAMS = ("kpi", "labels", "detections")

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self._streams: dict[str, list] = {name: [] for name in self.STREAMS}
        self._lock = threading.Lock()

    def _stream(self, name: str) -> list:
        try:
            return self._streams[name]
        except KeyError:
            raise UnknownStreamError(f"unknown stream {name!r}") from None

    def count(self, stream: str) -> int:
        return len(self._stream(stream))

    def append(self, stream: str, record) -> int:
        """Append one validated record; returns the stream count after append."""
        _validate_record(record)
        records = self._stream(stream)
        seq = record.seq
        with self._lock:
            if len(records) >= self.max_records:
                raise StoreFullError(
                    f"stream {stream!r} reached max_records={self.max_records}")
            if not records or records[-1].seq < seq:
                records.append(record)
            else:
                i = bisect.bisect_left(records, seq, key=_SEQ)
                if records[i].seq == seq:
                    raise DuplicateSeqError(f"stream {stream!r} already holds seq {seq}")
                records.insert(i, record)
            return len(records)

    def window(self, stream: str, from_seq: int = 0, to_seq: int | None = None) -> list:
        """Records with seq in [from_seq, to_seq] by seq; to_seq None reads to the end."""
        records = self._stream(stream)
        with self._lock:
            lo, hi = _bounds(records, from_seq, to_seq)
            return records[lo:hi]

    def max_seq(self, stream: str) -> int | None:
        records = self._stream(stream)
        with self._lock:
            return records[-1].seq if records else None

    def join_labels(self, from_seq: int = 0, to_seq: int | None = None
                    ) -> list[tuple[KpiSample, LabeledSample]]:
        """Inner join of kpi and labels on seq."""
        return self._join("kpi", from_seq, to_seq)

    def join_detections(self, from_seq: int = 0, to_seq: int | None = None,
                        last: int | None = None
                        ) -> list[tuple[DetectionRecord, LabeledSample]]:
        """Like `join_labels`; `last` keeps only the trailing `last` pairs."""
        return self._join("detections", from_seq, to_seq, last)

    def _join(self, stream: str, from_seq: int, to_seq: int | None,
              last: int | None = None) -> list:
        # a merge join walked back from the high end, so that the trailing
        # `last` pairs cost O(last) steps plus the unmatched records among them
        if last is not None and last < 1:
            raise ValueError("last must be >= 1")
        records, label_rows = self._streams[stream], self._streams["labels"]
        out = []
        with self._lock:
            i0, i = _bounds(records, from_seq, to_seq)
            j0, j = _bounds(label_rows, from_seq, to_seq)
            while i > i0 and j > j0 and len(out) != last:
                r, lab = records[i - 1], label_rows[j - 1]
                seq, label_seq = r.seq, lab.seq
                if seq > label_seq:
                    i -= 1
                elif seq < label_seq:
                    j -= 1
                else:
                    i -= 1
                    j -= 1
                    out.append((r, lab))
        out.reverse()
        return out


def _whole(row: dict, key: str) -> int:
    """`row[key]` as an int; a fractional float is a ValueError, not truncated."""
    value = row[key]
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} {value!r} is not a whole number")
    return int(value)


def _kpi_from_wire(row: dict) -> KpiSample:
    truth = row.get("truth", False)
    if isinstance(truth, str):
        truth = truth.strip() in ("1", "true", "True")
    return KpiSample(seq=_whole(row, "seq"), ts_ms=_whole(row, "ts_ms"),
                     snr_db=float(row["snr_db"]), mcs=_whole(row, "mcs"),
                     bler=float(row["bler"]), truth_interference=bool(truth))


def to_wire(sample: KpiSample, with_truth: bool = True) -> dict:
    """One KPI sample as the object a JSONL trace line holds."""
    d = {"seq": sample.seq, "ts_ms": sample.ts_ms, "snr_db": sample.snr_db,
         "mcs": sample.mcs, "bler": sample.bler}
    if with_truth:
        d["truth"] = sample.truth_interference
    return d


def write_detections(path: str | Path, records) -> int:
    """Write detection records as CSV under a header row; returns the count written."""
    row = operator.attrgetter(*DETECTION_CSV_COLUMNS)
    n = 0
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(DETECTION_CSV_COLUMNS)
        # csv.writer writes a float with repr, its shortest round-trip form
        for r in records:
            w.writerow(row(r))
            n += 1
    return n


def read_trace(path: str | Path) -> tuple[list[str], list[KpiSample]]:
    """Read a JSONL KPI trace, one sample per line; blank lines are skipped.

    Returns the first row's columns and the samples in file order. Each row
    is converted and validated as it is read. A row that is not an object,
    has a column a KPI sample lacks, does not convert (say `seq` 1.7),
    holds an invalid sample (say `bler` 1.5 or `snr_db` NaN) or repeats an
    earlier row's seq raises `SchemaError` naming the file and line.
    """
    path = Path(path)
    columns: list[str] = []
    samples: list[KpiSample] = []
    seqs: set[int] | None = None  # built at the first seq out of order
    keys = frozenset(KPI_COLUMNS)
    with path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not (line := line.strip()):
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: expected an object, "
                                  f"got {type(row).__name__}")
            if not samples:
                columns = list(row)
            if not row.keys() <= keys:
                raise SchemaError(f"{path}:{lineno}: unknown column(s) "
                                  f"{sorted(map(str, row.keys() - keys))} "
                                  f"for stream 'kpi'")
            try:
                sample = _kpi_from_wire(row)
                _validate_kpi(sample)
            except (KeyError, TypeError, ValueError, RecordInvalidError) as exc:
                raise SchemaError(f"{path}:{lineno}: bad row {row!r}: {exc}") from exc
            # in seq order a seq cannot repeat; past that, every seq is tracked
            if seqs is None and samples and sample.seq <= samples[-1].seq:
                seqs = {s.seq for s in samples}
            if seqs is not None:
                if sample.seq in seqs:
                    raise SchemaError(f"{path}:{lineno}: seq {sample.seq} "
                                      f"repeats an earlier line")
                seqs.add(sample.seq)
            samples.append(sample)
    return columns, samples
