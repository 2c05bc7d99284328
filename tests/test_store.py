import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jamloop.numbers import real, whole
from jamloop.scenarios import (MAX_ABS_SNR_DB, FeatureSample, KpiSample, iter_stream,
                               schedule_from_ids)
from jamloop.store import (DetectionRecord, LabeledSample, RecordInvalidError,
                           SchemaError, SeqOrderError, StoreError, StoreFullError,
                           TelemetryStore, UnknownStreamError, KPI_COLUMNS,
                           LABEL_CLEAN, LABEL_INTERFERENCE, _TRUTH_STRINGS, _validate_kpi,
                           read_trace, trace_line, write_detections)


def kpi(seq, snr=10.0, mcs=5, bler=0.1, truth=False):
    return KpiSample(seq=seq, ts_ms=seq * 100, snr_db=snr, mcs=mcs, bler=bler,
                     truth_interference=truth)


def label(seq, value=LABEL_CLEAN):
    return LabeledSample(seq=seq, label=value)


@pytest.fixture
def store():
    return TelemetryStore()


def dumps_line(s, with_truth=True):
    """The trace line as `json.dumps` writes it, to pin `trace_line` against."""
    d = {"seq": s.seq, "ts_ms": s.ts_ms, "snr_db": s.snr_db, "mcs": s.mcs, "bler": s.bler}
    if with_truth:
        d["truth"] = s.truth_interference
    return json.dumps(d)


class TestRecords:
    @pytest.mark.parametrize("record", [
        kpi(3), kpi(3).public(), label(3),
        DetectionRecord(3, 0.25, LABEL_CLEAN, 1)],
        ids=["KpiSample", "FeatureSample", "LabeledSample", "DetectionRecord"])
    def test_frozen_and_slotted(self, record):
        # a record is a NamedTuple: no __dict__, and no field can be assigned
        assert not hasattr(record, "__dict__")
        assert record._fields
        for name in record._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            assert getattr(record, name) is before
        # a name that is no field is refused too
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "extra")

    def test_feature_sample_holds_no_truth(self):
        sample = kpi(3, truth=True)
        assert "truth_interference" not in FeatureSample._fields
        assert len(sample.public()) == 5
        assert tuple(sample.public()) == tuple(sample)[:5]
        assert type(sample.public()) is FeatureSample  # a plain tuple is not a view


class TestAppend:
    def test_valid_append_increments_count(self, store):
        assert store.append("kpi", kpi(0)) == 1
        assert store.count("kpi") == 1

    @pytest.mark.parametrize("record", [
        kpi(0, bler=1.5),
        kpi(0, snr=math.nan), kpi(0, snr=math.inf), kpi(0, snr=-math.inf),
        kpi(0, bler=-0.1), kpi(0, bler=math.nan),
        kpi(0, mcs=-1), kpi(0, mcs=29), kpi(-1),
        kpi(0, snr=math.nan, bler=1.5),
        kpi(0, snr="x"), kpi(0, bler=None), kpi(0, snr=-1e300)],
        ids=["bler_1.5", "snr_nan", "snr_inf", "snr_-inf", "bler_-0.1", "bler_nan",
             "mcs_-1", "mcs_29", "seq_-1", "snr_nan_and_bler_1.5", "snr_str", "bler_none",
             "snr_-1e300"])
    def test_invalid_bler_rejected(self, store, record):
        # append raises exactly what `_validate_kpi` raises, type and message;
        # with two bad fields that is the first field's, snr_db before bler
        with pytest.raises((RecordInvalidError, TypeError)) as expected:
            _validate_kpi(record)
        with pytest.raises(Exception) as got:
            store.append("kpi", record)
        assert (type(got.value), str(got.value)) == (expected.type, str(expected.value))
        assert store.count("kpi") == 0

    def test_duplicate_seq_rejected(self, store):
        store.append("kpi", kpi(7))
        with pytest.raises(SeqOrderError, match="seq 7 is not above its last seq 7"):
            store.append("kpi", kpi(7))
        assert store.count("kpi") == 1

    def test_snr_at_synthesis_bound_accepted(self, store):
        # synthesis refuses an SNR beyond +-MAX_ABS_SNR_DB, and so does the store
        for seq, snr in enumerate((MAX_ABS_SNR_DB, -MAX_ABS_SNR_DB)):
            assert store.append("kpi", kpi(seq, snr=snr)) == seq + 1
        for snr in (math.nextafter(MAX_ABS_SNR_DB, math.inf), -1e101):
            with pytest.raises(RecordInvalidError, match=r"is beyond \+-1e\+100 dB"):
                store.append("kpi", kpi(2, snr=snr))
        assert store.count("kpi") == 2

    @pytest.mark.parametrize("stream,record", [
        ("labels", label(0)), ("detections", DetectionRecord(0, 0.2, LABEL_CLEAN, 1))],
        ids=["labels", "detections"])
    def test_column_streams_refused(self, store, stream, record):
        # a column stream has one write form, `extend_columns`
        with pytest.raises(StoreError, match=f"^stream '{stream}' is written as columns$"):
            store.append(stream, record)
        assert contents(store) == {name: [] for name in RECORD_OF}

    @pytest.mark.parametrize("stream,record", [
        ("kpi", label(0)), ("kpi", kpi(0).public())],
        ids=["kpi-LabeledSample", "kpi-FeatureSample"])
    def test_record_of_another_type_rejected(self, store, stream, record):
        with pytest.raises(RecordInvalidError, match=f"stream '{stream}' takes .* "
                                                     f"got {type(record).__name__}"):
            store.append(stream, record)
        assert store.count(stream) == 0

    @pytest.mark.parametrize("stream,record", [("kpi", kpi(0))], ids=["kpi"])
    def test_plain_tuple_rejected(self, store, stream, record):
        # a plain tuple equals the record that holds its values, but is no record
        plain = tuple(record)
        assert plain == record
        with pytest.raises(RecordInvalidError, match=f"stream '{stream}' takes .* got tuple"):
            store.append(stream, plain)
        assert store.count(stream) == 0
        assert store.append(stream, record) == 1

    def test_unknown_stream(self, store):
        with pytest.raises(UnknownStreamError, match="unknown stream .nope.$"):
            store.append("nope", kpi(0))

    @pytest.mark.parametrize("stream", ["kpi", "labels", "detections"])
    def test_seq_not_above_last_refused(self, store, stream):
        make = RECORD_OF[stream]
        for i in (1, 3, 5, 9):
            put(store, stream, make(i))
        for seq in (0, 1, 3, 4, 5, 8, 9):  # below, at and between the stored seqs
            with pytest.raises(SeqOrderError, match=f"seq {seq} is not above its last seq 9"):
                put(store, stream, make(seq))
        assert store.count(stream) == 4
        assert [r.seq for r in store.window(stream)] == [1, 3, 5, 9]
        assert put(store, stream, make(10)) == 5

    def test_max_seq_after_out_of_order_appends(self, store):
        assert store.max_seq("kpi") is None
        for i, expected in ((5, 5), (9, 9), (1, 9), (3, 9), (12, 12), (0, 12)):
            if expected == i:
                store.append("kpi", kpi(i))
            else:
                with pytest.raises(SeqOrderError):
                    store.append("kpi", kpi(i))
            assert store.max_seq("kpi") == expected
        assert [r.seq for r in store.window("kpi")] == [5, 9, 12]

    def test_capacity_aborts_not_evicts(self):
        small = TelemetryStore(max_records=3)
        for i in range(3):
            small.append("kpi", kpi(i))
        with pytest.raises(StoreFullError):
            small.append("kpi", kpi(3))
        assert small.count("kpi") == 3


RECORD_OF = {"kpi": kpi, "labels": label,
             "detections": lambda seq: DetectionRecord(seq, 0.5, LABEL_CLEAN, 1)}


def put(store, stream, record):
    """Write one record in its stream's write form: a kpi sample by `append`,
    a column stream's row by `extend_columns`; returns the stream count after."""
    if stream == "kpi":
        return store.append("kpi", record)
    return store.extend_columns(stream, *([value] for value in record))


def write(store, stream, records):
    """Write `records` in their stream's write form: each kpi sample by
    `append`, a column stream's rows as one `extend_columns` batch."""
    records = list(records)
    if stream == "kpi":
        for record in records:
            store.append("kpi", record)
        return store.count("kpi")
    columns = as_columns(records) or [[] for _ in RECORD_OF[stream](0)]
    return store.extend_columns(stream, *columns)


def as_columns(rows):
    return [list(c) for c in zip(*rows)]


def contents(store):
    return {name: store.window(name) for name in RECORD_OF}


def detection(seq, prob=0.5, verdict=LABEL_CLEAN, version=1):
    return DetectionRecord(seq, prob, verdict, version)


class TestExtendColumns:
    """A batch writes what its rows written one at a time would, or raises the
    first failing row's error, with its message, and writes nothing."""

    @settings(max_examples=300, deadline=None)
    @given(stream=st.sampled_from(["labels", "detections"]),
           stored=st.lists(st.integers(0, 30), unique=True, max_size=12).map(sorted),
           batch=st.lists(st.integers(0, 30), max_size=12),
           max_records=st.integers(0, 25))
    def test_same_as_rows_or_raises_first_row_error(self, stream, stored, batch,
                                                    max_records):
        stores = []
        for _ in range(2):
            s = TelemetryStore()
            for name in ("labels", "detections"):
                write(s, name, map(RECORD_OF[name], stored))
            s.max_records = max_records
            stores.append(s)
        batched, one_by_one = stores
        before = contents(batched)
        records = [RECORD_OF[stream](seq) for seq in batch]
        error = None
        for r in records:
            try:
                put(one_by_one, stream, r)
            except Exception as exc:
                error = exc
                break
        if error is None:
            assert write(batched, stream, records) == one_by_one.count(stream)
            assert contents(batched) == contents(one_by_one)
        else:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                write(batched, stream, records)
            assert contents(batched) == before

    @staticmethod
    def stores():
        """Two stores, each holding labels and detections at seqs 0 and 1, room for 4."""
        stores = [TelemetryStore(max_records=4) for _ in range(2)]
        for s in stores:
            write(s, "labels", [label(0), label(1)])
            write(s, "detections", [detection(0), detection(1)])
        return stores

    @pytest.mark.parametrize("stream,rows", [
        ("detections", [detection(2), detection(3, prob=math.nan)]),
        ("detections", [detection(2, prob=-0.0001)]),
        ("detections", [detection(2, prob=1.0000001)]),
        ("detections", [detection(2), detection(3, verdict="JAMMED")]),
        ("detections", [detection(2, verdict=None)]),
        ("detections", [detection(2, version=-1)]),
        ("detections", [detection(2, prob=2.0), detection(3, verdict="JAMMED")]),
        ("labels", [label(2), label(3, "UNLABELED")]),
        ("labels", [label(2, ["CLEAN"])]),
        ("labels", [label(2), label(2)]),
        ("detections", [detection(3), detection(2)]),
        ("labels", [label(1)]),
        ("detections", [detection(2), detection(3), detection(4)]),
        ("labels", [label(2), label(1), label(3), label(4)])],
        ids=["nan_prob", "negative_prob", "prob_above_1", "unknown_verdict",
             "unhashable_verdict", "negative_version", "first_row_first", "unknown_label",
             "unhashable_label", "repeated_seq", "seq_out_of_order", "seq_not_above_last",
             "full", "order_before_full"])
    def test_refuses_as_rows(self, stream, rows):
        batched, one_by_one = self.stores()
        before = contents(batched)
        with pytest.raises(Exception) as want:
            for row in rows:
                put(one_by_one, stream, row)
        assert isinstance(want.value, (RecordInvalidError, SeqOrderError, StoreFullError))
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            batched.extend_columns(stream, *as_columns(rows))
        assert contents(batched) == before

    def test_invalid_value_refused_before_seq_order(self, store):
        # every row's values are checked before any seq
        with pytest.raises(RecordInvalidError, match="unknown label 'UNLABELED'"):
            store.extend_columns("labels", [1, 0], [LABEL_CLEAN, "UNLABELED"])
        assert store.count("labels") == 0

    def test_writes_as_rows(self):
        batched, one_by_one = self.stores()
        rows = [detection(2, 0.25, LABEL_INTERFERENCE, 3), detection(5, 1.0, LABEL_CLEAN, 3)]
        assert batched.extend_columns("detections", *as_columns(rows)) == 4
        assert [put(one_by_one, "detections", row) for row in rows] == [3, 4]
        assert batched.extend_columns("labels", (2,), [LABEL_CLEAN]) == 3
        put(one_by_one, "labels", label(2))
        assert contents(batched) == contents(one_by_one)
        assert batched.window("detections") == [detection(0), detection(1)] + rows
        assert batched.extend_columns("labels", (), ()) == 3

    @pytest.mark.parametrize("seqs,seq,last", [
        ((9, 0, 6, 3), 0, 9), ((0, 9), 0, 8), ((8, 9), 8, 8), ((9, 10, 10), 10, 10)],
        ids=["shuffled", "below_last", "at_last", "repeat_in_batch"])
    def test_out_of_order_batch_writes_nothing(self, store, seqs, seq, last):
        write(store, "labels", map(label, (2, 5, 8)))
        with pytest.raises(SeqOrderError, match=f"seq {seq} is not above its last seq {last}"):
            write(store, "labels", map(label, seqs))
        assert store.window("labels") == [label(2), label(5), label(8)]
        assert store.max_seq("labels") == 8

    def test_batch_past_capacity_writes_nothing(self):
        small = TelemetryStore(max_records=5)
        write(small, "labels", map(label, range(3)))
        with pytest.raises(StoreFullError, match="max_records=5"):
            write(small, "labels", map(label, range(3, 6)))
        assert small.count("labels") == 3
        with pytest.raises(SeqOrderError):  # fits, but out of order
            write(small, "labels", map(label, (4, 3)))
        assert small.count("labels") == 3
        with pytest.raises(StoreFullError):  # capacity is checked first
            write(small, "labels", map(label, (3, 4, 1)))
        assert write(small, "labels", map(label, (3, 4))) == 5

    def test_misshapen_columns_and_kpi_refused(self, store):
        for columns in ([[0, 1], [LABEL_CLEAN]], [[0]], [[0], [LABEL_CLEAN], [LABEL_CLEAN]]):
            with pytest.raises(ValueError, match="takes 2 columns of one length"):
                store.extend_columns("labels", *columns)
        with pytest.raises(StoreError, match="'kpi' is written as records"):
            store.extend_columns("kpi", [0], [0], [10.0], [5], [0.1], [False])
        with pytest.raises(UnknownStreamError):
            store.extend_columns("nope", [0])
        assert contents(store) == {name: [] for name in RECORD_OF}


class TestWindow:
    def test_full_window(self, store):
        for i in range(20):
            store.append("kpi", kpi(i))
        assert len(store.window("kpi", 0, 19)) == 20

    def test_empty_range(self, store):
        store.append("kpi", kpi(0))
        assert store.window("kpi", 5, 9) == []

    def test_exact_count_in_subrange(self, store):
        for i in range(100):
            store.append("kpi", kpi(i))
        rows = store.window("kpi", 10, 19)
        assert len(rows) == 10
        assert [r.seq for r in rows] == list(range(10, 20))

    def test_sorted_even_with_out_of_order_append(self, store):
        for i in (5, 1, 9, 3):
            if i in (1, 3):
                with pytest.raises(SeqOrderError):
                    store.append("kpi", kpi(i))
            else:
                store.append("kpi", kpi(i))
        assert [r.seq for r in store.window("kpi", 0, 10)] == [5, 9]
        assert store.window("kpi", 0, 4) == []

    def test_open_end_reads_to_last_seq(self, store):
        for i in (1, 3, 5, 9):
            store.append("kpi", kpi(i))
        assert [r.seq for r in store.window("kpi")] == [1, 3, 5, 9]
        assert [r.seq for r in store.window("kpi", 4)] == [5, 9]
        assert TelemetryStore().window("labels", 3) == []

    def test_unknown_stream_distinct_from_empty(self, store):
        with pytest.raises(UnknownStreamError):
            store.window("ghost", 0, 10)


class TestJoin:
    def test_full_join(self, store):
        write(store, "kpi", map(kpi, range(100)))
        write(store, "labels", map(label, range(100)))
        assert len(store.join_labels()) == 100

    def test_partial_join_cardinality(self, store):
        write(store, "kpi", map(kpi, range(100)))
        write(store, "labels", map(label, range(50, 100)))
        assert len(store.join_labels()) == 50

    def test_disjoint_join_empty(self, store):
        write(store, "kpi", map(kpi, range(10)))
        write(store, "labels", map(label, range(100, 110)))
        assert store.join_labels() == []

    @pytest.mark.parametrize("seed", range(20))
    def test_trailing_pairs_equal_tail_of_full_join(self, seed):
        rng = np.random.default_rng(seed)
        store = TelemetryStore()
        seqs = np.sort(rng.choice(300, size=120, replace=False))  # sparse
        for seq in seqs:
            if rng.random() < 0.8:
                put(store, "detections", DetectionRecord(int(seq), 0.2, LABEL_CLEAN, 1))
            if rng.random() < 0.8 and rng.random() >= 0.2:  # some seqs unlabeled
                put(store, "labels", label(int(seq)))
        for from_seq in (0, 150, 299, 400):
            full = store.join_detections(from_seq=from_seq)
            assert [d.seq for d, _ in full] == sorted(d.seq for d, _ in full)
            for last in (1, 7, 200):
                assert store.join_detections(from_seq=from_seq, last=last) == full[-last:]

    def test_last_must_be_positive(self, store):
        with pytest.raises(ValueError):
            store.join_detections(last=0)

    @staticmethod
    def run_seqs(start, runs, halved=()):
        """Increasing seqs from `start`: per (gap, length), skip gap seqs, take length;
        a seq in `halved` becomes seq - 0.5, which keeps the order."""
        seqs, seq = [], start
        for gap, length in runs:
            seqs.extend(range(seq + gap, seq + gap + length))
            seq += gap + length
        return [q - 0.5 if q in halved else q for q in seqs]

    @staticmethod
    def reference_join(records, labels, from_seq, last):
        """Inner join on seq through a dict, from `from_seq` on, the trailing `last` pairs."""
        by_seq = {lab.seq: lab for lab in labels}
        pairs = [(r, by_seq[r.seq]) for r in records if r.seq >= from_seq and r.seq in by_seq]
        return pairs if last is None else pairs[-last:]

    seq_runs = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), max_size=8)

    @settings(max_examples=300, deadline=None)
    @given(starts=st.tuples(*[st.integers(0, 4)] * 3), kpi_runs=seq_runs,
           label_runs=seq_runs, detection_runs=seq_runs, inside=st.integers(0, 120),
           halved=st.tuples(*[st.sets(st.integers(1, 120), max_size=3)] * 3),
           shared_tail=st.integers(0, 12))
    def test_matches_dict_join(self, starts, kpi_runs, label_runs, detection_runs, inside,
                               halved, shared_tail):
        # runs with gaps in each stream: a run of pairs is taken whole where both
        # streams hold it, and stepped through where either has a gap part way. A
        # seq halved in one stream only leaves a run's integer ends in place, yet
        # pairs with nothing. A shared tail, one run of seqs past every stream's
        # last appended to all three, ends the streams in equal seqs as the loop's
        # do: 1, 7 or 12 of them against `last` 1 and 7 take the slice join at,
        # below and past exactly `last` equal seqs
        store = TelemetryStore()
        names = ("kpi", "labels", "detections")
        seqs = [self.run_seqs(start, runs, halves) for start, runs, halves in
                zip(starts, (kpi_runs, label_runs, detection_runs), halved)]
        tail_start = int(max((s[-1] for s in seqs if s), default=-1)) + 1
        tail = list(range(tail_start, tail_start + shared_tail))
        for stream, stream_seqs in zip(names, seqs):
            write(store, stream, map(RECORD_OF[stream], stream_seqs + tail))
        kpis, labels, detections = (store.window(name) for name in names)
        assert store.join_labels() == self.reference_join(kpis, labels, 0, None)
        past = max([r.seq for r in kpis + labels + detections], default=0) + 1
        for from_seq in (0, inside, past):
            for last in (None, 1, 7, 200):
                assert store.join_detections(from_seq, last) == \
                    self.reference_join(detections, labels, from_seq, last)
                for stream, records in (("kpi", kpis), ("detections", detections)):
                    pairs = self.reference_join(records, labels, from_seq, last)
                    seqs, rows, joined = store.join(stream, from_seq, last)
                    assert seqs == [r.seq for r, _ in pairs]
                    assert joined == [lab.label for _, lab in pairs]
                    if stream == "kpi":
                        assert rows == [r for r, _ in pairs]
                    else:
                        assert list(zip(seqs, *rows)) == [r for r, _ in pairs]

    def test_join_refuses_labels_unknown_streams_and_last_0(self, store):
        with pytest.raises(StoreError, match="stream 'labels' is joined from"):
            store.join("labels")
        with pytest.raises(UnknownStreamError):
            store.join("nope")
        for stream in ("kpi", "detections"):
            with pytest.raises(ValueError, match="last must be >= 1"):
                store.join(stream, last=0)
            assert store.join(stream) == ([], [] if stream == "kpi" else ([], [], []), [])


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["JSONL"])
    def test_kpi_round_trip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(17)
        originals = [kpi(i, snr=float(rng.normal(12, 8)), mcs=int(rng.integers(0, 29)),
                         bler=float(rng.uniform()), truth=bool(rng.integers(0, 2)))
                     for i in range(1000)]
        path = tmp_path / f"kpi.{fmt.lower()}"
        path.write_text("".join(trace_line(s) + "\n" for s in originals))
        columns, restored = read_trace(path)
        assert columns == KPI_COLUMNS
        assert restored == originals  # bit-exact via repr round trip

    def test_simulated_trace_rewritten_byte_identical(self, tmp_path):
        from jamloop.cli import main
        sched = tmp_path / "schedule.yaml"
        sched.write_text("entries:\n  - {id: 2, duration_samples: 60}\n"
                         "  - {id: 13, duration_samples: 60}\n")
        assert main(["--seed", "3", "--out", str(tmp_path), "simulate",
                     "--schedule", str(sched), "--with-truth"]) == 0
        trace = tmp_path / "trace.jsonl"
        columns, records = read_trace(trace)
        assert columns == KPI_COLUMNS and len(records) == 120
        again = "".join(trace_line(r) + "\n" for r in records)
        assert again.encode() == trace.read_bytes()

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_trace_line_is_json_dumps_on_catalog_stream(self, with_truth):
        samples = list(iter_stream(schedule_from_ids(list(range(1, 19)), seed=7)))
        assert len(samples) == 18 * 300
        for s in samples:
            assert trace_line(s, with_truth) == dumps_line(s, with_truth)
            assert (trace_line(s, with_truth, (repr(s.snr_db), repr(s.bler)))
                    == dumps_line(s, with_truth))

    @pytest.mark.parametrize("value", [5e-324, 1e300, -0.0, 0.1 + 0.2, 1.0, 1e16, 123456.5])
    def test_trace_line_is_json_dumps_on_edge_floats(self, value):
        for s in (kpi(2**40, snr=value, bler=0.0), kpi(0, snr=-value, bler=abs(value) % 1,
                                                        mcs=28, truth=True)):
            for with_truth in (True, False):
                assert trace_line(s, with_truth) == dumps_line(s, with_truth)

    @pytest.mark.parametrize("tail", [
        ' {"seq": 1, "ts_ms": 100, "snr_db": 1.0, "mcs": 2, "bler": 0.1}', "x", "]", "}", " 7"],
        ids=["second_object", "letter", "bracket", "brace", "number"])
    def test_trailing_data_names_file_and_line(self, tmp_path, tail):
        path = tmp_path / "bad.jsonl"
        path.write_text(trace_line(kpi(0)) + "\n" + trace_line(kpi(1)) + tail + "\n")
        with pytest.raises(SchemaError, match=r"bad\.jsonl:2: invalid JSON: Extra data"):
            read_trace(path)

    def test_bom_line_keeps_json_message(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_text("\ufeff" + trace_line(kpi(0)) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"bom\.jsonl:1: invalid JSON: Unexpected UTF-8 BOM"):
            read_trace(path)

    @pytest.mark.parametrize("line", ["3", "[1, 2]", '"seq"', "null"])
    def test_non_object_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "ts_ms": 0, "snr_db": 1.0, "mcs": 2, "bler": 0.1}\n'
                        f"\n{line}\n")
        with pytest.raises(SchemaError, match=r"bad\.jsonl:3: expected an object"):
            read_trace(path)

    def test_unknown_column_named_in_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "ts_ms": 0, "snr_db": 1.0, "mcs": 2, '
                        '"bler": 0.1, "bogus_col": 9}\n')
        with pytest.raises(SchemaError, match="bogus_col"):
            read_trace(path)

    def test_missing_column_named_in_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('\n{"seq": 0, "ts_ms": 0, "snr_db": 1.0, "mcs": 2}\n')
        with pytest.raises(SchemaError, match=r"bad\.jsonl:2: missing column\(s\) "
                                              r"\['bler'\] for stream 'kpi'$"):
            read_trace(path)

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_integer_reals_read_as_floats(self, tmp_path, with_truth):
        rows = [json.loads(trace_line(kpi(i), with_truth)) for i in range(3)]
        rows[1].update(snr_db=5, bler=0)
        rows[2].update(snr_db=-3, bler=1)
        path = tmp_path / "ints.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        samples = read_trace(path)[1]
        assert [(s.snr_db, s.bler) for s in samples] == [(10.0, 0.1), (5.0, 0.0), (-3.0, 1.0)]
        assert all(type(s.snr_db) is float and type(s.bler) is float for s in samples)
        assert samples[1] == kpi(1, snr=5.0, bler=0.0)

    @pytest.mark.parametrize("truth", [(True, False), (False, True)],
                             ids=["dropped", "added"])
    def test_columns_unlike_first_row_name_line(self, tmp_path, truth):
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n" + trace_line(kpi(0), truth[0]) + "\n"
                        + trace_line(kpi(1), truth[0]) + "\n"
                        + trace_line(kpi(2), truth[1]) + "\n")
        with pytest.raises(SchemaError, match=r"mixed\.jsonl:4: columns .* are not "
                                              r"the first row's"):
            read_trace(path)

    @pytest.mark.parametrize("seqs", [(4, 2, 4), (3, 4, 4)])
    def test_repeated_seq_names_line(self, tmp_path, seqs):
        path = tmp_path / "dup.jsonl"
        path.write_text("".join(trace_line(kpi(i)) + "\n" for i in seqs))
        with pytest.raises(SchemaError, match=r"dup\.jsonl:3: seq 4 repeats an earlier line"):
            read_trace(path)

    def test_out_of_order_unique_seqs_read_in_file_order(self, tmp_path):
        path = tmp_path / "shuffled.jsonl"
        path.write_text("".join(trace_line(kpi(i)) + "\n" for i in (4, 0, 9, 2)))
        assert [s.seq for s in read_trace(path)[1]] == [4, 0, 9, 2]

    def test_string_truth_read_by_value(self, tmp_path):
        path = tmp_path / "strings.jsonl"
        rows = [dict(json.loads(trace_line(kpi(i))), truth=t)
                for i, t in enumerate(["0", "1", "true"])]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert [s.truth_interference for s in read_trace(path)[1]] == [False, True, True]

    @pytest.mark.parametrize("truth,want", [
        (True, True), (False, False), ("1", True), ("0", False), ("true", True),
        ("false", False), ("True", True), ("False", False), (" True ", True),
        ("\tfalse", False)])
    def test_accepted_truth_values(self, tmp_path, truth, want):
        path = tmp_path / "truth.jsonl"
        path.write_text(json.dumps(dict(json.loads(trace_line(kpi(0))), truth=truth)) + "\n")
        assert read_trace(path)[1][0].truth_interference is want

    @pytest.mark.parametrize("truth", [None, [], "yes", 0.5, 2, 1, 0, "", "TRUE", {}])
    def test_other_truth_value_names_line(self, tmp_path, truth):
        path = tmp_path / "truth.jsonl"
        rows = [json.loads(trace_line(kpi(0))),
                dict(json.loads(trace_line(kpi(1))), truth=truth)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(SchemaError, match=r"truth\.jsonl:2: bad row .*truth"):
            read_trace(path)

    def test_export_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_detections(path, []) == 0
        assert path.read_text().strip() == "seq,prob,verdict,model_version"

    def test_detections_csv_prob_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [DetectionRecord(i, float(rng.uniform()),
                                   LABEL_INTERFERENCE if i % 2 else LABEL_CLEAN, 3)
                   for i in range(200)]
        path = tmp_path / "det.csv"
        assert write_detections(path, records) == 200
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert [DetectionRecord(int(r["seq"]), float(r["prob"]), r["verdict"],
                                int(r["model_version"]))
                for r in rows] == records  # prob exact: csv writes repr


    def test_failed_export_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "det.csv"

        def failing_at(k):
            for i in range(50):
                if i == k:
                    raise RuntimeError(f"detector failed at record {k}")
                yield DetectionRecord(i, 0.5, LABEL_CLEAN, 1)

        with pytest.raises(RuntimeError, match="record 30"):
            write_detections(path, failing_at(30))
        assert list(tmp_path.iterdir()) == []

        assert write_detections(path, failing_at(50)) == 50
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="record 10"):
            write_detections(path, failing_at(10))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["det.csv"]

    def test_directory_path_refused_before_writing(self, tmp_path):
        path = tmp_path / "det.csv"
        path.mkdir()
        with pytest.raises(IsADirectoryError, match="det.csv"):
            write_detections(path, [DetectionRecord(0, 0.5, LABEL_CLEAN, 1)])
        assert [p.name for p in tmp_path.iterdir()] == ["det.csv"]
        assert path.is_dir()


def _reference_kpi_from_wire(row: dict) -> KpiSample:
    truth = row.get("truth", False)
    if isinstance(truth, str):
        truth = _TRUTH_STRINGS.get(truth.strip(), truth)
    if type(truth) is not bool:
        raise ValueError(f"truth {truth!r} is not true, false or one of {list(_TRUTH_STRINGS)}")
    return KpiSample(whole(row["seq"], "seq"), whole(row["ts_ms"], "ts_ms"),
                     real(row["snr_db"], "snr_db"), whole(row["mcs"], "mcs"),
                     real(row["bler"], "bler"), truth)


def _reference_read_trace(path):
    """`read_trace` as it was before its typed path, whose samples and error
    messages `read_trace` must keep; `json.loads` stands for its one-`raw_decode`
    parse, which gave the same values and errors. Each sample is checked by
    `_validate_kpi`, whose bound on `snr_db` (+-MAX_ABS_SNR_DB) the typed path
    must keep too."""
    path = Path(path)
    columns, samples = [], []
    seqs = None
    keys = frozenset(KPI_COLUMNS)
    with path.open("r", encoding="utf-8") as f:
        try:
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
                    if not row.keys() <= keys:
                        raise SchemaError(f"{path}:{lineno}: unknown column(s) "
                                          f"{sorted(row.keys() - keys)} for stream 'kpi'")
                    columns, keys = list(row), frozenset(row)
                elif row.keys() != keys:
                    raise SchemaError(f"{path}:{lineno}: columns {sorted(row)} are not "
                                      f"the first row's {sorted(keys)}")
                try:
                    sample = _reference_kpi_from_wire(row)
                    _validate_kpi(sample)
                except (KeyError, TypeError, ValueError, RecordInvalidError) as exc:
                    raise SchemaError(f"{path}:{lineno}: bad row {row!r}: {exc}") from exc
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


TRACE_FAULTS = ["bool", "float_seq", "nan", "infinity", "snr_beyond_bound", "bler_1_5",
                "mcs_29", "negative_seq", "repeated_seq", "extra_column", "bad_json",
                "missing_column"]


@st.composite
def trace_files(draw):
    """A trace file's lines, and the index and kind of its one faulty line, if any.

    Rows mix canonical `trace_line`s, integer-valued `snr_db` and `bler`,
    `snr_db` at the +-MAX_ABS_SNR_DB bound, string truths and blank lines,
    with seqs in any order.
    """
    with_truth = draw(st.booleans())
    seqs = draw(st.lists(st.integers(0, 60), max_size=8, unique=True))

    def row(seq):
        s = KpiSample(seq, draw(st.integers(0, 10**7)),
                      draw(st.floats(-60, 60, allow_subnormal=False)), draw(st.integers(0, 28)),
                      draw(st.floats(0, 1)), draw(st.booleans()))
        return s, json.loads(trace_line(s, with_truth))

    lines = []
    for seq in seqs:
        s, r = row(seq)
        style = draw(st.sampled_from(["canonical", "integer_reals", "snr_at_bound",
                                      "string_truth"]))
        if style == "canonical":
            lines.append(trace_line(s, with_truth))
            continue
        if style == "integer_reals":
            r.update(snr_db=draw(st.integers(-60, 60)), bler=draw(st.integers(0, 1)))
        elif style == "snr_at_bound":
            r["snr_db"] = draw(st.sampled_from([MAX_ABS_SNR_DB, -MAX_ABS_SNR_DB]))
        elif with_truth:
            r["truth"] = draw(st.sampled_from(["1", "0", "true", " False", "True\t"]))
        lines.append(json.dumps(r))
    fault = draw(st.sampled_from([None] + TRACE_FAULTS))
    at = None
    if fault is not None:
        _, r = row(100)
        if fault == "bool":
            r[draw(st.sampled_from(KPI_COLUMNS[:5]))] = draw(st.booleans())
        elif fault == "float_seq":
            r["seq"] = 100.0
        elif fault in ("nan", "infinity"):
            r[draw(st.sampled_from(["snr_db", "bler"]))] = (
                math.nan if fault == "nan" else draw(st.sampled_from([math.inf, -math.inf])))
        elif fault == "snr_beyond_bound":
            r["snr_db"] = draw(st.sampled_from(
                [1e300, -1e300, math.nextafter(MAX_ABS_SNR_DB, math.inf), -1e101]))
        elif fault == "bler_1_5":
            r["bler"] = 1.5
        elif fault == "mcs_29":
            r["mcs"] = 29
        elif fault == "negative_seq":
            r["seq"] = -3
        elif fault == "repeated_seq":
            r["seq"] = draw(st.sampled_from(seqs)) if seqs else 0
        elif fault == "extra_column":
            r["rsrp"] = -90
        elif fault == "missing_column":
            del r[draw(st.sampled_from(KPI_COLUMNS[:5]))]
        line = json.dumps(r)
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, line[:-1] if fault == "bad_json" else line)
    for i in reversed(range(len(lines) + 1)):
        if draw(st.integers(0, 4)) == 0:
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
            if at is not None and i <= at:
                at += 1
    return lines, fault, at


class TestReadTraceMatchesReference:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace_files())
    def test_same_samples_or_same_error(self, tmp_path, trace):
        lines, fault, at = trace
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            want = _reference_read_trace(path)
        except SchemaError as exc:
            want = exc
        try:
            got = read_trace(path)
        except SchemaError as exc:
            got = exc
        if fault == "missing_column" and not any(line.strip() for line in lines[:at]):
            # a first row without a column names it, on purpose; the reference
            # reported the KeyError
            assert isinstance(want, SchemaError) and isinstance(got, SchemaError)
            assert str(want).startswith(f"{path}:{at + 1}: bad row ")
            assert str(got).startswith(f"{path}:{at + 1}: missing column(s) [")
        elif isinstance(want, SchemaError):
            assert isinstance(got, SchemaError) and str(got) == str(want)
        else:
            columns, samples = got
            assert columns == want[0]
            assert [repr(s) for s in samples] == [repr(s) for s in want[1]]
            assert all(type(s) is KpiSample for s in samples)


class TestConcurrency:
    def test_concurrent_appenders_distinct_streams(self, store):
        import threading

        def put_kpi():
            for i in range(500):
                store.append("kpi", kpi(i))

        def put_labels():
            for i in range(500):
                put(store, "labels", label(i))

        threads = [threading.Thread(target=put_kpi), threading.Thread(target=put_labels)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.count("kpi") == 500
        assert store.count("labels") == 500

    def test_interleaved_batches_one_stream(self, store):
        # two writers' increasing batches take turns along the seq axis, so of
        # the two batches that span one stretch of seqs at most one can land;
        # every batch lands whole or is refused whole
        import sys
        import threading
        n_batches, size = 40, 25
        landed, refused, errors = [], [], []

        def write_batches(k):
            for b in range(n_batches):
                batch = [label(2 * (b * size + i) + k) for i in range(size)]
                try:
                    write(store, "labels", batch)
                except SeqOrderError:
                    refused.append(batch)
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)
                else:
                    landed.append(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=write_batches, args=(k,)) for k in range(2)]
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers)
        assert not errors
        assert len(landed) + len(refused) == 2 * n_batches
        assert len(refused) >= n_batches
        seqs = [r.seq for r in store.window("labels")]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        assert store.window("labels") == sorted((r for batch in landed for r in batch),
                                                key=lambda r: r.seq)

    def test_interleaved_out_of_order_appenders_one_stream(self, store):
        # each thread's seqs fall between the others', so appenders race on
        # each stream while a reader joins: an append lands or is refused
        import sys
        import threading
        n_threads, per_thread = 6, 400
        landed = {"detections": [], "labels": []}
        refusals, errors = [], []

        def write_rows(k):
            for i in range(per_thread):
                seq = i * n_threads + k
                for stream, record in (
                        ("detections", DetectionRecord(seq, 0.2, LABEL_CLEAN, 1)),
                        ("labels", label(seq))):
                    try:
                        put(store, stream, record)
                    except SeqOrderError:
                        refusals.append(seq)
                    except Exception as exc:  # surfaced by the assert below
                        errors.append(exc)
                    else:
                        landed[stream].append(record)

        def read():
            while any(t.is_alive() for t in writers):
                pairs = store.join_detections(last=50)
                if not all(d.seq == lab.seq for d, lab in pairs):
                    errors.append(AssertionError("join paired unequal seqs"))
                if [d.seq for d, _ in pairs] != sorted(d.seq for d, _ in pairs):
                    errors.append(AssertionError("join out of seq order"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=write_rows, args=(k,)) for k in range(n_threads)]
            reader = threading.Thread(target=read)
            for t in writers:
                t.start()
            reader.start()
            for t in writers + [reader]:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reader])
        assert not errors
        assert len(refusals) + sum(map(len, landed.values())) == 2 * n_threads * per_thread
        for stream, records in landed.items():
            seqs = [r.seq for r in store.window(stream)]
            assert all(a < b for a, b in zip(seqs, seqs[1:]))
            assert store.window(stream) == sorted(records, key=lambda r: r.seq)
        both = {r.seq for r in landed["detections"]} & {r.seq for r in landed["labels"]}
        assert [d.seq for d, _ in store.join_detections()] == sorted(both)
