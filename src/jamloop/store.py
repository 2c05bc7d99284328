"""Append-only in-memory telemetry store with windowed queries, plus the
JSONL KPI trace writer and reader, the detections CSV writer and the
atomic file writer.

Three fixed streams wire the closed loop together: `kpi` (raw samples),
`labels` (labeler verdicts), `detections` (deployed-model outputs).
Records are immutable, keyed by seq, and never overwritten; each stream
takes seqs in increasing order, so a replay or a swapped sample is refused
loudly (`SeqOrderError`) instead of merging silently.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import json
import math
import operator
import os
import threading
from pathlib import Path
from typing import NamedTuple

from .numbers import real, whole
from .scenarios import KpiSample

LABEL_CLEAN = "CLEAN"
LABEL_INTERFERENCE = "INTERFERENCE"

DEFAULT_MAX_RECORDS = 1_000_000

KPI_COLUMNS = ["seq", "ts_ms", "snr_db", "mcs", "bler", "truth"]
# a trace's truth: JSON true or false, or one of these strings once stripped
_TRUTH_STRINGS = {"1": True, "true": True, "True": True, "0": False, "false": False,
                  "False": False}


class StoreError(Exception):
    pass


class UnknownStreamError(StoreError):
    pass


class SeqOrderError(StoreError):
    """A record's seq is not above its stream's last seq; a repeat is one case."""


class RecordInvalidError(StoreError):
    pass


class StoreFullError(StoreError):
    pass


class SchemaError(StoreError):
    pass


class LabeledSample(NamedTuple):
    seq: int
    label: str  # CLEAN | INTERFERENCE

    def validate(self) -> None:
        if self.label not in (LABEL_CLEAN, LABEL_INTERFERENCE):
            raise RecordInvalidError(f"unknown label {self.label!r}")


class DetectionRecord(NamedTuple):
    seq: int
    prob: float
    verdict: str  # CLEAN | INTERFERENCE
    model_version: int

    def validate(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise RecordInvalidError(f"prob {self.prob} outside [0,1]")
        if self.verdict not in (LABEL_CLEAN, LABEL_INTERFERENCE):
            raise RecordInvalidError(f"unknown verdict {self.verdict!r}")
        if self.model_version < 0:
            raise RecordInvalidError("model_version must be non-negative")


DETECTION_CSV_COLUMNS = list(DetectionRecord._fields)


def _validate_kpi(s: KpiSample) -> None:
    if not math.isfinite(s.snr_db):
        raise RecordInvalidError(f"snr_db {s.snr_db} is not finite")
    if not 0.0 <= s.bler <= 1.0:
        raise RecordInvalidError(f"bler {s.bler} outside [0,1]")
    if not 0 <= s.mcs <= 28:
        raise RecordInvalidError(f"mcs {s.mcs} outside 0..28")
    if s.seq < 0:
        raise RecordInvalidError("seq must be non-negative")


# each stream's record type, and the check a record of it must pass
_RECORDS = {"kpi": (KpiSample, _validate_kpi),
            "labels": (LabeledSample, LabeledSample.validate),
            "detections": (DetectionRecord, DetectionRecord.validate)}


_SEQ = operator.attrgetter("seq")


def _validate(stream: str, record) -> None:
    """Raise `RecordInvalidError` unless `record` is a valid record of `stream`'s type."""
    kind, check = _RECORDS[stream]
    if not isinstance(record, kind):
        raise RecordInvalidError(f"stream {stream!r} takes {kind.__name__} records, "
                                 f"got {type(record).__name__}")
    check(record)


def _unknown_stream(name: str) -> UnknownStreamError:
    return UnknownStreamError(f"unknown stream {name!r}")


def _bounds(records: list, from_seq: int, to_seq: int | None) -> tuple[int, int]:
    """Index range of the seq-ordered `records` with seq in [from_seq, to_seq]."""
    if to_seq is not None and from_seq > to_seq:
        raise ValueError("from_seq must be <= to_seq")
    lo = bisect.bisect_left(records, from_seq, key=_SEQ)
    hi = len(records) if to_seq is None else bisect.bisect_right(records, to_seq, key=_SEQ)
    return lo, hi


class TelemetryStore:
    """In-memory append-only store, one seq order per stream.

    Each stream is one list in increasing seq order: an append is a compare
    with the last seq, and a window is two bisects and a slice. Every write and
    read holds one lock, and a write that loses a race to a higher seq is refused.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self._streams: dict[str, list] = {name: [] for name in _RECORDS}
        self._lock = threading.Lock()

    def _stream(self, name: str) -> list:
        try:
            return self._streams[name]
        except KeyError:
            raise _unknown_stream(name) from None

    def count(self, stream: str) -> int:
        return len(self._stream(stream))

    def _refuse(self, stream: str, stored: list, seqs: list) -> None:
        """Raise what the first failing append of `seqs` onto `stored` would, if one would."""
        last = stored[-1].seq if stored else None
        for n, seq in enumerate(seqs, start=len(stored)):
            if n >= self.max_records:
                raise StoreFullError(f"stream {stream!r} reached max_records={self.max_records}")
            if last is not None and seq <= last:
                raise SeqOrderError(f"stream {stream!r} takes seqs in increasing order: "
                                    f"seq {seq} is not above its last seq {last}")
            last = seq

    def append(self, stream: str, record) -> int:
        """Append one valid record of the stream's type; returns the stream count after."""
        try:  # the per-sample path: one dict lookup, no `_stream` call
            records = self._streams[stream]
        except KeyError:
            raise _unknown_stream(stream) from None
        _validate(stream, record)
        with self._lock:
            if len(records) >= self.max_records or records and records[-1].seq >= record.seq:
                self._refuse(stream, records, [record.seq])
            records.append(record)
            return len(records)

    def extend(self, stream: str, records) -> int:
        """Append a batch of records, all or none; returns the stream count after.

        A record of another type or an invalid one raises `RecordInvalidError`.
        Past those checks, a batch that fits and runs in increasing seq order past
        the stream's last seq is one `list.extend` under the lock; any other
        raises what its first failing `append` would, and writes nothing.
        """
        stored, batch = self._stream(stream), list(records)
        for record in batch:
            _validate(stream, record)
        seqs = [r.seq for r in batch]
        with self._lock:
            if (len(stored) + len(batch) > self.max_records
                    or not all(map(operator.lt, seqs, seqs[1:]))
                    or stored and seqs and stored[-1].seq >= seqs[0]):
                self._refuse(stream, stored, seqs)
            stored.extend(batch)
            return len(stored)

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

    def join_labels(self) -> list[tuple[KpiSample, LabeledSample]]:
        """Inner join of kpi and labels on seq, over the whole history."""
        return self._join("kpi", 0)

    def join_detections(self, from_seq: int = 0, last: int | None = None
                        ) -> list[tuple[DetectionRecord, LabeledSample]]:
        """Inner join of detections and labels on seq, from `from_seq` on;
        `last` keeps only the trailing `last` pairs."""
        return self._join("detections", from_seq, last)

    def _join(self, stream: str, from_seq: int, last: int | None = None) -> list:
        # a merge join walked back from the high end, so that the trailing
        # `last` pairs cost O(last) steps plus the unmatched records among them
        if last is not None and last < 1:
            raise ValueError("last must be >= 1")
        records, label_rows = self._streams[stream], self._streams["labels"]
        out = []
        with self._lock:
            i0, i = _bounds(records, from_seq, None)
            j0, j = _bounds(label_rows, from_seq, None)
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


def _kpi_from_wire(row: dict) -> KpiSample:
    truth = row.get("truth", False)
    if isinstance(truth, str):
        truth = _TRUTH_STRINGS.get(truth.strip(), truth)
    if type(truth) is not bool:
        raise ValueError(f"truth {truth!r} is not true, false or one of {list(_TRUTH_STRINGS)}")
    return KpiSample(whole(row["seq"], "seq"), whole(row["ts_ms"], "ts_ms"),
                     real(row["snr_db"], "snr_db"), whole(row["mcs"], "mcs"),
                     real(row["bler"], "bler"), truth)


def trace_line(sample: KpiSample, with_truth: bool = True,
               reprs: tuple[str, str] | None = None) -> str:
    """One KPI sample as its JSONL trace line, without the newline.

    The bytes are those of `json.dumps` on the object {"seq", "ts_ms",
    "snr_db", "mcs", "bler"[, "truth"]}: json writes an int with `repr` and a
    finite float with `float.__repr__`, as this f-string does. The sample's
    floats must be finite, as every stored or synthesized sample's are.
    `reprs`, if given, is `(repr(sample.snr_db), repr(sample.bler))`.
    """
    snr_db, bler = reprs or (repr(sample.snr_db), repr(sample.bler))
    line = (f'{{"seq": {sample.seq!r}, "ts_ms": {sample.ts_ms!r}, '
            f'"snr_db": {snr_db}, "mcs": {sample.mcs!r}, "bler": {bler}')
    if with_truth:
        return line + (', "truth": true}' if sample.truth_interference else ', "truth": false}')
    return line + "}"


@contextlib.contextmanager
def atomic_writer(path: Path):
    """A text file to write `path` through: a sibling temporary file, renamed
    over `path` when the block ends and removed if it raises, so a writer
    that fails or dies part way leaves no partial file and an earlier `path` whole.
    The file translates no newlines, as the csv module requires, and a `path`
    that is a directory raises `IsADirectoryError` before anything is written."""
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_detections(path: str | Path, records) -> int:
    """Write detection records as CSV under a header row, atomically; returns the count."""
    n = 0
    with atomic_writer(Path(path)) as f:
        w = csv.writer(f)
        w.writerow(DETECTION_CSV_COLUMNS)
        # a record is its own row; csv.writer writes a float with repr
        for r in records:
            w.writerow(r)
            n += 1
    return n


_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str):
    """`json.loads(line)` for a stripped line, by one `raw_decode` when it parses.

    A line that does not parse, or holds more than one value, goes through
    `json.loads` so that the error and its message are the ones it raises.
    """
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    return value if end == len(line) else json.loads(line)


def read_trace(path: str | Path) -> tuple[list[str], list[KpiSample]]:
    """Read a JSONL KPI trace, one sample per line; blank lines are skipped.

    Returns the first row's columns and the samples in file order. Each row
    is converted and validated as it is read. A row that is not an object,
    has a column a KPI sample lacks or other columns than the first row's
    (say `truth` on some rows only), holds a field that is not a number by
    `numbers.whole` or `numbers.real` (say `seq` 1.0, `"3"` or `true`, or
    `snr_db` NaN), holds an invalid sample (say `bler` 1.5) or repeats an
    earlier row's seq raises `SchemaError` naming the file and line. A file
    that is not UTF-8 text raises `SchemaError` naming the file.
    """
    path = Path(path)
    columns: list[str] = []
    samples: list[KpiSample] = []
    seqs: set[int] | None = None  # built at the first seq out of order
    keys = frozenset(KPI_COLUMNS)  # the first row's once it is read
    with path.open("r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not (line := line.strip()):
                    continue
                try:
                    row = _parse_line(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(row, dict):
                    raise SchemaError(f"{path}:{lineno}: expected an object, "
                                      f"got {type(row).__name__}")
                if not samples:
                    if not row.keys() <= keys:
                        raise SchemaError(f"{path}:{lineno}: unknown column(s) "
                                          f"{sorted(row.keys() - keys)} for stream 'kpi'")
                    columns, keys = list(row), frozenset(row)
                elif row.keys() != keys:
                    raise SchemaError(f"{path}:{lineno}: columns {sorted(row)} are not "
                                      f"the first row's {sorted(keys)}")
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
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return columns, samples
