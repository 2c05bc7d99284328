"""Append-only in-memory telemetry store with windowed queries, plus the
JSONL KPI trace writer and reader, the detections CSV writer and the
atomic file writer.

Three fixed streams wire the closed loop together: `kpi` (raw samples),
`labels` (labeler verdicts), `detections` (deployed-model outputs).
Each is held in one layout, a seq column and then its value columns, which
the closed loop writes and joins as columns; `append`, `extend`, `window`
and the record joins are the edges where records go in and out. Rows are
immutable, keyed by seq, and never overwritten; each stream takes seqs in
increasing order, so a replay or a swapped sample is refused loudly
(`SeqOrderError`) instead of merging silently.
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
from .scenarios import KpiSample, kpi_from_fields

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


class DetectionRecord(NamedTuple):
    seq: int
    prob: float
    verdict: str  # CLEAN | INTERFERENCE
    model_version: int


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


def _check_kpi(samples) -> None:
    for sample in samples:
        _validate_kpi(sample)


# each stream's record type, and the check its value columns must pass
_RECORDS = {"kpi": (KpiSample, _check_kpi),
            "labels": (LabeledSample, _check_labels),
            "detections": (DetectionRecord, _check_detections)}
# a record of a column stream from one tuple of its fields, without __new__'s frame
_ROW = {kind: partial(tuple.__new__, kind) for kind in (LabeledSample, DetectionRecord)}
_FIRST = operator.itemgetter(0)


def _wrong_type(stream: str, kind: type, record) -> RecordInvalidError:
    return RecordInvalidError(f"stream {stream!r} takes {kind.__name__} records, "
                              f"got {type(record).__name__}")


def _columns(stream: str, records: list) -> list:
    """The stream's columns of its `records`, seqs first; kpi's one value
    column is the records themselves."""
    if stream == "kpi":
        return [[r.seq for r in records], records]
    return list(zip(*records)) or [()] * len(_RECORDS[stream][0]._fields)


def _records(kind: type, columns) -> list:
    """The records of type `kind` whose fields are the rows of `columns`."""
    return list(map(_ROW[kind], zip(*columns)))


def _join(left: tuple[list, ...], right: tuple[list, ...], from_seq, last: int | None
          ) -> tuple[list, list]:
    """`left`'s and `right`'s columns, seqs first, at the seqs both streams hold
    from `from_seq` on, the trailing `last` (all if None), in seq order.

    Each seq column is bisected to the range from `from_seq` to the lower of
    the two last seqs. If the ranges' trailing `last` seqs (or all of the
    shorter) are equal, they are the join, taken as slices; else the ranges
    are joined through a dict."""
    if last is not None and last < 1:
        raise ValueError("last must be >= 1")
    a, b = left[0], right[0]
    end = min(a[-1], b[-1]) if a and b else from_seq
    i, j = bisect.bisect_left(a, from_seq), bisect.bisect_left(b, from_seq)
    i1, j1 = bisect.bisect_right(a, end, i), bisect.bisect_right(b, end, j)
    k = min(i1 - i, j1 - j, last or i1)
    if a[i1 - k:i1] == b[j1 - k:j1]:
        return [c[i1 - k:i1] for c in left], [c[j1 - k:j1] for c in right]
    at = {seq: n for n, seq in enumerate(b[j:j1], j)}
    rows = [n for n in range(i, i1) if a[n] in at]
    if last:
        rows = rows[-last:]
    others = [at[a[n]] for n in rows]
    return [[c[n] for n in rows] for c in left], [[c[n] for n in others] for c in right]


class TelemetryStore:
    """In-memory append-only store, one seq order per stream.

    Every stream has one layout, a seq column and then its value columns,
    one list each: `kpi` one column of `KpiSample` records, `labels` the
    label, `detections` prob, verdict and model_version. The closed loop
    writes `labels` and `detections` (`extend_columns`) and reads every
    stream (`join`) as columns; records are the API at the edges only. A
    kpi append is one type check, one unpack, one inline range test
    (`_validate_kpi` runs only to name the failing field), one seq compare
    and two list appends under the lock; a window is two bisects and a
    slice. Every write and read holds one lock, and a write that loses a
    race to a higher seq is refused.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self._streams: dict[str, tuple[list, ...]] = {
            name: tuple(map(list, _columns(name, []))) for name in _RECORDS}
        self._kpi = self._streams["kpi"]
        self._lock = threading.Lock()

    def _stream(self, name: str) -> tuple[list, ...]:
        try:
            return self._streams[name]
        except KeyError:
            raise UnknownStreamError(f"unknown stream {name!r}") from None

    def count(self, stream: str) -> int:
        return len(self._stream(stream)[0])

    def _admit(self, stream: str, stored: list, seqs) -> None:
        """Raise what the first failing append of `seqs` onto a stream whose
        seq column is `stored` would, if one would."""
        count, last = len(stored), stored[-1] if stored else None
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

    def _write(self, stream: str, columns) -> int:
        """Append checked `columns`, seqs first, to the stream's, all or none;
        returns the stream count after."""
        stored = self._streams[stream]
        with self._lock:
            self._admit(stream, stored[0], columns[0])
            for column, values in zip(stored, columns):
                column.extend(values)
            return len(stored[0])

    def append(self, stream: str, record) -> int:
        """Append one valid record of the stream's type; returns the stream count after."""
        if stream != "kpi":  # a batch of one, by this class's `extend` and no override's
            return TelemetryStore.extend(self, stream, (record,))
        if not isinstance(record, KpiSample):  # the per-sample path
            raise _wrong_type(stream, KpiSample, record)
        seq, _, snr_db, mcs, bler, _ = record
        # `_validate_kpi`'s comparisons in its order; it runs only to raise its message
        if not (math.isfinite(snr_db) and 0.0 <= bler <= 1.0 and 0 <= mcs <= 28
                and not seq < 0):
            _validate_kpi(record)
        seqs, records = self._kpi
        with self._lock:
            if len(seqs) >= self.max_records or seqs and seqs[-1] >= seq:
                self._admit(stream, seqs, [seq])
            seqs.append(seq)
            records.append(record)
            return len(seqs)

    def extend(self, stream: str, records) -> int:
        """Append a batch of records, all or none; returns the stream count after.

        A record of another type or an invalid one raises `RecordInvalidError`,
        the first such record's error. Past those checks, a batch that fits and
        runs in increasing seq order past the stream's last seq is written
        under the lock; any other raises what its first failing `append` would,
        and writes nothing.
        """
        self._stream(stream)  # an unknown stream raises here
        kind, check = _RECORDS[stream]
        batch = list(records)
        if not all(map(isinstance, batch, itertools.repeat(kind))):
            n = next(n for n, r in enumerate(batch) if not isinstance(r, kind))
            check(*_columns(stream, batch[:n])[1:])  # an invalid record before it is first
            raise _wrong_type(stream, kind, batch[n])
        columns = _columns(stream, batch)
        check(*columns[1:])
        return self._write(stream, columns)

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
        return self._write(stream, (seqs, *fields))

    def window(self, stream: str, from_seq: int = 0, to_seq: int | None = None) -> list:
        """Records with seq in [from_seq, to_seq] by seq; to_seq None reads to the end."""
        columns = self._stream(stream)
        if to_seq is not None and from_seq > to_seq:
            raise ValueError("from_seq must be <= to_seq")
        with self._lock:
            seqs = columns[0]
            lo = bisect.bisect_left(seqs, from_seq)
            hi = len(seqs) if to_seq is None else bisect.bisect_right(seqs, to_seq)
            if stream == "kpi":  # the records are kpi's value column
                return columns[1][lo:hi]
            return _records(_RECORDS[stream][0], [c[lo:hi] for c in columns])

    def max_seq(self, stream: str) -> int | None:
        seqs = self._stream(stream)[0]
        with self._lock:
            return seqs[-1] if seqs else None

    def join(self, stream: str, from_seq: int = 0, last: int | None = None
             ) -> tuple[list, list | tuple[list, ...], list[str]]:
        """Inner join of `stream`, kpi or detections, with labels on seq, from
        `from_seq` on, as columns; `last` keeps only the trailing `last` pairs.

        Returns the pairs' seqs, `stream`'s rows and the labels, in seq order.
        The rows are the stream's one value column, kpi's records, or the
        tuple of its value columns, detections' prob, verdict and
        model_version. No record is built.
        """
        columns = self._stream(stream)
        if stream == "labels":
            raise StoreError("stream 'labels' is joined from 'kpi' or 'detections'")
        with self._lock:
            (seqs, *rows), (_, labels) = _join(columns, self._streams["labels"], from_seq, last)
        return seqs, rows[0] if len(rows) == 1 else tuple(rows), labels

    def join_labels(self) -> list[tuple[KpiSample, LabeledSample]]:
        """`join` of kpi over the whole history, as (sample, label record) pairs."""
        seqs, samples, labels = self.join("kpi")
        return list(zip(samples, _records(LabeledSample, (seqs, labels))))

    def join_detections(self, from_seq: int = 0, last: int | None = None
                        ) -> list[tuple[DetectionRecord, LabeledSample]]:
        """`join` of detections, as (detection, label) record pairs."""
        seqs, fields, labels = self.join("detections", from_seq, last)
        return list(zip(_records(DetectionRecord, (seqs, *fields)),
                        _records(LabeledSample, (seqs, labels))))


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
                            sample = kpi_from_fields(values)
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
