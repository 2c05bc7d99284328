"""Append-only in-memory telemetry store with windowed queries and file I/O.

Three fixed streams wire the closed loop together: `kpi` (raw samples),
`labels` (labeler verdicts), `detections` (deployed-model outputs).
Records are immutable, keyed by seq, and never overwritten; duplicate
seqs are rejected so replays surface loudly instead of merging silently.
"""

from __future__ import annotations

import bisect
import csv
import json
import operator
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
        """Inner join of kpi and labels on seq; unlabeled pairs excluded."""
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
                    if lab.label != LABEL_UNLABELED:
                        out.append((r, lab))
        out.reverse()
        return out

    # ---- persistence ----

    def export(self, stream: str, path: str | Path, fmt: str = "JSONL",
               with_truth: bool = True) -> int:
        """Write a stream to disk; returns the record count written."""
        return write_records(path, stream, self.window(stream), fmt, with_truth)

    def import_file(self, path: str | Path, fmt: str = "JSONL",
                    stream: str | None = None) -> str:
        """Read a file into a stream (inferred from its columns if not given)."""
        columns, records = read_records(path, fmt, stream)
        stream = stream or _infer_stream(columns)
        for record in records:
            self.append(stream, record)
        return stream


def _kpi_from_wire(row: dict) -> KpiSample:
    truth = row.get("truth", False)
    if isinstance(truth, str):
        truth = truth.strip() in ("1", "true", "True")
    return KpiSample(seq=int(row["seq"]), ts_ms=int(row["ts_ms"]),
                     snr_db=float(row["snr_db"]), mcs=int(row["mcs"]),
                     bler=float(row["bler"]), truth_interference=bool(truth))


def _label_from_wire(row: dict) -> LabeledSample:
    return LabeledSample(seq=int(row["seq"]), label=str(row["label"]),
                         confidence=float(row["confidence"]), source=str(row["source"]))


def _detection_from_wire(row: dict) -> DetectionRecord:
    return DetectionRecord(seq=int(row["seq"]), prob=float(row["prob"]),
                           verdict=str(row["verdict"]),
                           model_version=int(row["model_version"]),
                           latency_us=int(row["latency_us"]))


# per stream: its columns, and the converter of one row read back
_WIRE = {"kpi": (KPI_CSV_COLUMNS, _kpi_from_wire),
         "labels": (LABEL_CSV_COLUMNS, _label_from_wire),
         "detections": (DETECTION_CSV_COLUMNS, _detection_from_wire)}


def _wire(stream: str):
    try:
        return _WIRE[stream]
    except KeyError:
        raise UnknownStreamError(f"unknown stream {stream!r}") from None


def _infer_stream(columns) -> str:
    if "label" in columns:
        return "labels"
    if "verdict" in columns:
        return "detections"
    return "kpi"


def to_wire(record, with_truth: bool = True) -> dict:
    """One record as the object a JSONL line holds."""
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


def _kpi_csv_row(s: KpiSample) -> tuple:
    return s.seq, s.ts_ms, s.snr_db, s.mcs, s.bler, int(s.truth_interference)


def write_records(path: str | Path, stream: str, records, fmt: str = "JSONL",
                  with_truth: bool = True) -> int:
    """Write one stream's records as JSONL or CSV; returns the count written."""
    cols = _wire(stream)[0]
    if stream == "kpi" and not with_truth:
        cols = cols[:-1]
    fmt = fmt.upper()
    if fmt not in ("JSONL", "CSV"):
        raise ValueError(f"unknown export format {fmt!r}")
    n = 0
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        if fmt == "JSONL":
            for r in records:
                f.write(json.dumps(to_wire(r, with_truth)) + "\n")
                n += 1
            return n
        w = csv.writer(f)
        w.writerow(cols)
        # csv.writer writes a float with repr, its shortest round-trip form
        row = _kpi_csv_row if cols[-1] == "truth" else operator.attrgetter(*cols)
        for r in records:
            w.writerow(row(r))
            n += 1
    return n


def read_records(path: str | Path, fmt: str = "JSONL",
                 stream: str | None = None) -> tuple[list[str], list]:
    """Read a JSONL or CSV file of one stream's records.

    Returns the first row's columns and the records; the stream, if not
    given, is inferred from those columns. Each row is converted and
    validated as it is read. A row that is not an object, has a column its
    stream lacks, does not convert or holds an invalid record (say `bler`
    1.5) raises `SchemaError` naming the file and line.
    """
    path = Path(path)
    fmt = fmt.upper()
    if fmt not in ("JSONL", "CSV"):
        raise ValueError(f"unknown import format {fmt!r}")
    columns: list[str] = []
    records: list = []
    keys = parse = None
    with path.open("r", encoding="utf-8", newline="" if fmt == "CSV" else None) as f:
        csv_rows = csv.DictReader(f) if fmt == "CSV" else None
        for lineno, row in enumerate(csv_rows or f, start=1):
            if csv_rows is not None:
                lineno = csv_rows.line_num
            elif not (row := row.strip()):
                continue
            else:
                try:
                    row = json.loads(row)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: expected an object, "
                                  f"got {type(row).__name__}")
            if parse is None:
                columns = list(row)
                stream = stream or _infer_stream(columns)
                cols, parse = _wire(stream)
                keys = frozenset(cols)
            if not row.keys() <= keys:
                raise SchemaError(f"{path}:{lineno}: unknown column(s) "
                                  f"{sorted(map(str, row.keys() - keys))} "
                                  f"for stream {stream!r}")
            try:
                record = parse(row)
                _validate_record(record)
            except (KeyError, TypeError, ValueError, RecordInvalidError) as exc:
                raise SchemaError(f"{path}:{lineno}: bad row {row!r}: {exc}") from exc
            records.append(record)
    return columns, records
