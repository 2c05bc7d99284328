"""Append-only in-memory telemetry store with windowed queries, plus the
JSONL KPI trace writer and reader, the detections CSV writer and the
atomic file writer.

Three fixed streams wire the closed loop together: `kpi` (raw samples),
`labels` (labeler verdicts), `detections` (deployed-model outputs).
`kpi` is held as records, `labels` and `detections` as columns; every
stream reads and writes records at its edges. Rows are immutable, keyed by
seq, and never overwritten; each stream takes seqs in increasing order, so
a replay or a swapped sample is refused loudly (`SeqOrderError`) instead
of merging silently.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import itertools
import json
import math
import operator
import os
import threading
from functools import partial
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
_KPI_KEYS = frozenset(KPI_COLUMNS)


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
        _check_labels((self.label,))


class DetectionRecord(NamedTuple):
    seq: int
    prob: float
    verdict: str  # CLEAN | INTERFERENCE
    model_version: int

    def validate(self) -> None:
        _check_detections((self.prob,), (self.verdict,), (self.model_version,))


DETECTION_CSV_COLUMNS = list(DetectionRecord._fields)
_LABEL_VALUES = (LABEL_CLEAN, LABEL_INTERFERENCE)
_LABEL_SET = frozenset(_LABEL_VALUES)


def _validate_kpi(s: KpiSample) -> None:
    if not math.isfinite(s.snr_db):
        raise RecordInvalidError(f"snr_db {s.snr_db} is not finite")
    if not 0.0 <= s.bler <= 1.0:
        raise RecordInvalidError(f"bler {s.bler} outside [0,1]")
    if not 0 <= s.mcs <= 28:
        raise RecordInvalidError(f"mcs {s.mcs} outside 0..28")
    if s.seq < 0:
        raise RecordInvalidError("seq must be non-negative")


def _check_labels(labels, field: str = "label") -> None:
    """Raise `RecordInvalidError` for the first of `labels` that is not CLEAN or INTERFERENCE."""
    with contextlib.suppress(TypeError):  # a screen in C; an unhashable value fails it
        if set(labels) <= _LABEL_SET:
            return
    for label in labels:
        if label not in _LABEL_VALUES:
            raise RecordInvalidError(f"unknown {field} {label!r}")


def _check_detections(probs, verdicts, model_versions) -> None:
    """Raise `RecordInvalidError` for the first row whose prob is outside [0,1],
    whose verdict is unknown or whose model_version is negative, in that order.
    Each column is screened in C, with the row's own comparisons; only columns
    that fail the screen are walked row by row."""
    with contextlib.suppress(TypeError):  # a value that does not compare or hash fails it
        if (all(map(operator.le, itertools.repeat(0.0), probs))
                and all(map(operator.le, probs, itertools.repeat(1.0)))
                and set(verdicts) <= _LABEL_SET
                and not any(map(operator.lt, model_versions, itertools.repeat(0)))):
            return
    for prob, verdict, version in zip(probs, verdicts, model_versions):
        if not 0.0 <= prob <= 1.0:
            raise RecordInvalidError(f"prob {prob} outside [0,1]")
        _check_labels((verdict,), "verdict")
        if version < 0:
            raise RecordInvalidError("model_version must be non-negative")


# each stream's record type, and the check its records must pass: a KpiSample's
# by itself, a column stream's on the columns of its fields after seq
_RECORDS = {"kpi": (KpiSample, _validate_kpi),
            "labels": (LabeledSample, _check_labels),
            "detections": (DetectionRecord, _check_detections)}
# a record of a column stream from one tuple of its fields, without __new__'s frame
_ROW = {kind: partial(tuple.__new__, kind) for kind in (LabeledSample, DetectionRecord)}


_SEQ = operator.attrgetter("seq")
_FIRST = operator.itemgetter(0)


def _wrong_type(stream: str, kind: type, record) -> RecordInvalidError:
    return RecordInvalidError(f"stream {stream!r} takes {kind.__name__} records, "
                              f"got {type(record).__name__}")


def _unknown_stream(name: str) -> UnknownStreamError:
    return UnknownStreamError(f"unknown stream {name!r}")


def _bounds(seqs: list, from_seq: int, to_seq: int | None, key=None) -> tuple[int, int]:
    """Index range of the increasing `seqs` (the seqs of records by `key`) in [from_seq, to_seq]."""
    if to_seq is not None and from_seq > to_seq:
        raise ValueError("from_seq must be <= to_seq")
    lo = bisect.bisect_left(seqs, from_seq, key=key)
    hi = len(seqs) if to_seq is None else bisect.bisect_right(seqs, to_seq, key=key)
    return lo, hi


def _records(kind: type, columns) -> list:
    """The records of type `kind` whose fields are the rows of `columns`."""
    return list(map(_ROW[kind], zip(*columns)))


def _take(column: list, spans: list[tuple[int, int]]) -> list:
    """The values of `column` in the index spans (start, length), in order."""
    if len(spans) == 1:  # an aligned run
        (i, k), = spans
        return column[i:i + k]
    return list(itertools.chain.from_iterable(column[i:i + k] for i, k in spans))


class TelemetryStore:
    """In-memory append-only store, one seq order per stream.

    `kpi` is one list of records. `labels` and `detections` are columns, one
    list per record field, which the closed loop writes (`extend_columns`)
    and joins (`join_verdicts`) a window at a time; records stay their API
    at the edges. An append is a compare with the last seq, and a window two
    bisects and a slice. Every write and read holds one lock, and a write
    that loses a race to a higher seq is refused.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self._streams: dict[str, list | tuple[list, ...]] = {
            name: [] if kind is KpiSample else tuple([] for _ in kind._fields)
            for name, (kind, _) in _RECORDS.items()}
        self._lock = threading.Lock()

    def _stream(self, name: str) -> list | tuple[list, ...]:
        try:
            return self._streams[name]
        except KeyError:
            raise _unknown_stream(name) from None

    def count(self, stream: str) -> int:
        stored = self._stream(stream)
        return len(stored) if stream == "kpi" else len(stored[0])

    def _admit(self, stream: str, count: int, last, seqs) -> None:
        """Raise what the first failing append of `seqs` onto a stream of `count`
        records up to seq `last` (None if empty) would, if one would."""
        if (count + len(seqs) <= self.max_records and all(map(operator.lt, seqs, seqs[1:]))
                and not (last is not None and seqs and last >= seqs[0])):
            return
        for n, seq in enumerate(seqs, start=count):
            if n >= self.max_records:
                raise StoreFullError(f"stream {stream!r} reached max_records={self.max_records}")
            if last is not None and seq <= last:
                raise SeqOrderError(f"stream {stream!r} takes seqs in increasing order: "
                                    f"seq {seq} is not above its last seq {last}")
            last = seq

    def append(self, stream: str, record) -> int:
        """Append one valid record of the stream's type; returns the stream count after."""
        if stream != "kpi":  # a batch of one, by this class's `extend` and no override's
            return TelemetryStore.extend(self, stream, (record,))
        records = self._streams["kpi"]  # the per-sample path
        if not isinstance(record, KpiSample):
            raise _wrong_type(stream, KpiSample, record)
        _validate_kpi(record)
        with self._lock:
            if len(records) >= self.max_records or records and records[-1].seq >= record.seq:
                self._admit(stream, len(records), records[-1].seq if records else None,
                            [record.seq])
            records.append(record)
            return len(records)

    def extend(self, stream: str, records) -> int:
        """Append a batch of records, all or none; returns the stream count after.

        A record of another type or an invalid one raises `RecordInvalidError`,
        the first such record's error. Past those checks, a batch that fits and
        runs in increasing seq order past the stream's last seq is written
        under the lock; any other raises what its first failing `append` would,
        and writes nothing.
        """
        stored, batch = self._stream(stream), list(records)
        kind, check = _RECORDS[stream]
        if stream != "kpi":
            if not all(map(isinstance, batch, itertools.repeat(kind))):
                n = next(n for n, r in enumerate(batch) if not isinstance(r, kind))
                check(*_columns(batch[:n], kind)[1:])  # an invalid record before it is first
                raise _wrong_type(stream, kind, batch[n])
            return self.extend_columns(stream, *_columns(batch, kind))
        for record in batch:
            if not isinstance(record, kind):
                raise _wrong_type(stream, kind, record)
            check(record)
        seqs = [r.seq for r in batch]
        with self._lock:
            self._admit(stream, len(stored), stored[-1].seq if stored else None, seqs)
            stored.extend(batch)
            return len(stored)

    def extend_columns(self, stream: str, seqs, *fields) -> int:
        """Append a batch of `labels` or `detections` rows given as columns, all
        or none; returns the stream count after.

        `seqs` and each of `fields`, one per record field after seq in order,
        are sequences of one length. The rows pass the checks of `extend` and
        raise its errors, with the message its records would give.
        """
        columns = self._stream(stream)
        if stream == "kpi":
            raise StoreError("stream 'kpi' is written as records")
        if len(fields) != len(columns) - 1 or any(len(f) != len(seqs) for f in fields):
            raise ValueError(f"stream {stream!r} takes {len(columns)} columns of one length")
        _RECORDS[stream][1](*fields)
        with self._lock:
            stored = columns[0]
            self._admit(stream, len(stored), stored[-1] if stored else None, seqs)
            for column, values in zip(columns, (seqs, *fields)):
                column.extend(values)
            return len(stored)

    def window(self, stream: str, from_seq: int = 0, to_seq: int | None = None) -> list:
        """Records with seq in [from_seq, to_seq] by seq; to_seq None reads to the end."""
        stored = self._stream(stream)
        with self._lock:
            if stream == "kpi":
                lo, hi = _bounds(stored, from_seq, to_seq, _SEQ)
                return stored[lo:hi]
            lo, hi = _bounds(stored[0], from_seq, to_seq)
            return _records(_RECORDS[stream][0], [c[lo:hi] for c in stored])

    def max_seq(self, stream: str) -> int | None:
        stored = self._stream(stream)
        with self._lock:
            if stream == "kpi":
                return stored[-1].seq if stored else None
            return stored[0][-1] if stored[0] else None

    def join_labels(self) -> list[tuple[KpiSample, LabeledSample]]:
        """Inner join of kpi and labels on seq, over the whole history."""
        return self._join("kpi", 0)

    def join_detections(self, from_seq: int = 0, last: int | None = None
                        ) -> list[tuple[DetectionRecord, LabeledSample]]:
        """Inner join of detections and labels on seq, from `from_seq` on;
        `last` keeps only the trailing `last` pairs."""
        return self._join("detections", from_seq, last)

    def join_verdicts(self, from_seq: int = 0, last: int | None = None
                      ) -> tuple[list, list[str], list[str]]:
        """The pairs of `join_detections` as columns: their seqs, verdicts and labels."""
        with self._lock:
            left, right = self._spans("detections", from_seq, last)
            seqs, _, verdicts, _ = self._streams["detections"]
            return _take(seqs, left), _take(verdicts, left), \
                _take(self._streams["labels"][1], right)

    def _join(self, stream: str, from_seq: int, last: int | None = None) -> list:
        with self._lock:
            left, right = self._spans(stream, from_seq, last)
            stored = self._streams[stream]
            rows = (_take(stored, left) if stream == "kpi" else
                    _records(DetectionRecord, [_take(c, left) for c in stored]))
            labels = _records(LabeledSample, [_take(c, right)
                                              for c in self._streams["labels"]])
        return list(zip(rows, labels))

    def _spans(self, stream: str, from_seq: int, last: int | None) -> tuple[list, list]:
        """Index spans (start, length) in `stream` and in labels of the seqs both
        hold from `from_seq` on, the trailing `last` (all if None), in seq order.
        The caller holds the lock.

        A merge walked back from the high end, so that the trailing `last`
        pairs cost O(last) steps plus the unmatched seqs among them. At a match
        on seq, when the k seqs of each stream that end there start at
        seq - k + 1, integer seqs make both runs seq - k + 1 .. seq: one list
        compare confirms it, and the run is taken in one step. A seq that is no
        integer can fail that compare; the merge then walks the rest pair by
        pair (`runs` false).
        """
        if last is not None and last < 1:
            raise ValueError("last must be >= 1")
        stored, b = self._streams[stream], self._streams["labels"][0]
        a = list(map(_SEQ, stored)) if stream == "kpi" else stored[0]
        i0, j0 = bisect.bisect_left(a, from_seq), bisect.bisect_left(b, from_seq)
        i, j, want = len(a), len(b), last or len(a) - i0  # no more pairs than seqs in a
        left, right, n, runs = [], [], 0, True
        while i > i0 and j > j0 and n != want:
            seq, other = a[i - 1], b[j - 1]
            if seq > other:
                i -= 1
            elif seq < other:
                j -= 1
            else:
                k = min(i - i0, j - j0, want - n)
                if not (runs and k > 1 and a[i - k] == b[j - k] == seq - k + 1
                        and (runs := a[i - k:i] == b[j - k:j])):
                    k = 1
                i, j, n = i - k, j - k, n + k
                left.append((i, k))
                right.append((j, k))
        left.reverse()
        right.reverse()
        return left, right


def _columns(records: list, kind: type) -> list:
    """The field columns of `records` of type `kind`, empty ones for no records."""
    return list(zip(*records)) or [()] * len(kind._fields)


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
    counter = itertools.count()  # zip draws from it once per record it passes on
    with atomic_writer(Path(path)) as f:
        w = csv.writer(f)
        w.writerow(DETECTION_CSV_COLUMNS)
        # a record is its own row; csv.writer writes a float with repr
        w.writerows(map(_FIRST, zip(records, counter)))
    return next(counter)


# the C scanner `json.loads` runs, called without `raw_decode`'s Python frame
_scan_once = json.JSONDecoder().scan_once
# a KpiSample from one tuple of its fields, without the generated __new__'s frame
_kpi_sample = partial(tuple.__new__, KpiSample)


def _not_object(path: Path, lineno: int, row) -> SchemaError:
    return SchemaError(f"{path}:{lineno}: expected an object, got {type(row).__name__}")


def _first_row_keys(path: Path, lineno: int, row) -> frozenset:
    """The columns of a trace's first row, which every later row must have."""
    if not isinstance(row, dict):
        raise _not_object(path, lineno, row)
    if not row.keys() <= _KPI_KEYS:
        raise SchemaError(f"{path}:{lineno}: unknown column(s) "
                          f"{sorted(row.keys() - _KPI_KEYS)} for stream 'kpi'")
    if missing := [c for c in KPI_COLUMNS[:5] if c not in row]:
        raise SchemaError(f"{path}:{lineno}: missing column(s) {missing} for stream 'kpi'")
    return frozenset(row)


def _row_sample(path: Path, lineno: int, row, keys: frozenset) -> KpiSample:
    """The sample of a parsed row by the general path, which converts and
    validates each field and raises `SchemaError` naming the line."""
    if not isinstance(row, dict):
        raise _not_object(path, lineno, row)
    if row.keys() != keys:
        raise SchemaError(f"{path}:{lineno}: columns {sorted(row)} are not "
                          f"the first row's {sorted(keys)}")
    try:
        sample = _kpi_from_wire(row)
        _validate_kpi(sample)
    except (TypeError, ValueError, RecordInvalidError) as exc:
        raise SchemaError(f"{path}:{lineno}: bad row {row!r}: {exc}") from exc
    return sample


def read_trace(path: str | Path) -> tuple[list[str], list[KpiSample]]:
    """Read a JSONL KPI trace, one sample per line; blank lines are skipped.

    Returns the first row's columns and the samples in file order. Each row
    is converted and validated as it is read. A row that is not an object,
    a first row that lacks a column of `seq`, `ts_ms`, `snr_db`, `mcs` and
    `bler` or has a column a KPI sample lacks, a row with other columns than
    the first row's (say `truth` on some rows only), a field that is not a
    number by `numbers.whole` or `numbers.real` (say `seq` 1.0, `"3"` or
    `true`, or `snr_db` NaN), an invalid sample (say `bler` 1.5) or a seq
    that repeats an earlier row's raises `SchemaError` naming the file and
    line. A file that is not UTF-8 text raises `SchemaError` naming the file.

    A row whose fields already have their sample's types (`seq`, `ts_ms` and
    `mcs` ints, `snr_db` and `bler` floats, `truth` a bool or absent) and
    pass `_validate_kpi`'s checks is taken as it is; every other row goes
    through `_kpi_from_wire` and `_validate_kpi`. Both give a row the same
    sample, and an error its message and line.
    """
    path = Path(path)
    columns: list[str] = []
    samples: list[KpiSample] = []
    append = samples.append
    scan, low, high = _scan_once, -math.inf, math.inf  # low < x < high: x is finite
    keys = frozenset()  # the first row's once it is read
    last = -1  # the last row's seq; every seq is at least 0
    seqs: set[int] | None = None  # built at the first seq out of order
    with path.open("r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not (line := line.strip()):
                    continue
                try:
                    row, end = scan(line, 0)
                except (StopIteration, json.JSONDecodeError):
                    end = -1
                if end != len(line):  # json.loads raises the error and message
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not keys:
                    keys = _first_row_keys(path, lineno, row)
                    columns, width = list(row), len(keys)
                    # a row's fields in sample order; a trace without truth reads False
                    fields = operator.itemgetter(*(c for c in KPI_COLUMNS if c in keys))
                    pad = () if "truth" in keys else (False,)
                sample = None
                if type(row) is dict and len(row) == width:
                    try:
                        values = fields(row) + pad
                    except KeyError:  # other columns than the first row's
                        pass
                    else:  # a row of typed fields that `_validate_kpi` would pass
                        seq, ts_ms, snr_db, mcs, bler, truth = values
                        if (type(seq) is int and type(ts_ms) is int and type(mcs) is int
                                and type(snr_db) is float and type(bler) is float
                                and type(truth) is bool and low < snr_db < high
                                and 0.0 <= bler <= 1.0 and 0 <= mcs <= 28 and seq >= 0):
                            sample = _kpi_sample(values)
                if sample is None:
                    sample = _row_sample(path, lineno, row, keys)
                    seq = sample.seq
                # in seq order a seq cannot repeat; past that, every seq is tracked
                if seqs is None and seq <= last:
                    seqs = {s.seq for s in samples}
                if seqs is not None:
                    if seq in seqs:
                        raise SchemaError(f"{path}:{lineno}: seq {seq} "
                                          f"repeats an earlier line")
                    seqs.add(seq)
                last = seq
                append(sample)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return columns, samples
