import csv
import json

import numpy as np
import pytest

from jamloop.scenarios import KpiSample
from jamloop.store import (DetectionRecord, DuplicateSeqError, LabeledSample,
                           RecordInvalidError, SchemaError, StoreFullError,
                           TelemetryStore, UnknownStreamError, KPI_COLUMNS,
                           LABEL_CLEAN, LABEL_INTERFERENCE,
                           read_trace, to_wire, write_detections)


def kpi(seq, snr=10.0, mcs=5, bler=0.1, truth=False):
    return KpiSample(seq=seq, ts_ms=seq * 100, snr_db=snr, mcs=mcs, bler=bler,
                     truth_interference=truth)


def label(seq, value=LABEL_CLEAN):
    return LabeledSample(seq=seq, label=value)


@pytest.fixture
def store():
    return TelemetryStore()


class TestAppend:
    def test_valid_append_increments_count(self, store):
        assert store.append("kpi", kpi(0)) == 1
        assert store.count("kpi") == 1

    def test_invalid_bler_rejected(self, store):
        with pytest.raises(RecordInvalidError):
            store.append("kpi", kpi(0, bler=1.5))
        assert store.count("kpi") == 0

    def test_duplicate_seq_rejected(self, store):
        store.append("kpi", kpi(7))
        with pytest.raises(DuplicateSeqError):
            store.append("kpi", kpi(7))
        assert store.count("kpi") == 1

    def test_unknown_label_rejected(self, store):
        with pytest.raises(RecordInvalidError):
            LabeledSample(0, "UNLABELED").validate()
        with pytest.raises(RecordInvalidError):
            store.append("labels", LabeledSample(0, "UNLABELED"))
        assert store.count("labels") == 0

    def test_unknown_stream(self, store):
        with pytest.raises(UnknownStreamError):
            store.append("nope", kpi(0))

    def test_duplicate_rejected_after_out_of_order_insert(self, store):
        for i in (5, 1, 9, 3):
            store.append("kpi", kpi(i))
        for dup in (1, 3, 5, 9):  # first, inserted, middle and last seq
            with pytest.raises(DuplicateSeqError):
                store.append("kpi", kpi(dup))
        assert store.count("kpi") == 4
        assert [r.seq for r in store.window("kpi")] == [1, 3, 5, 9]

    def test_max_seq_after_out_of_order_appends(self, store):
        assert store.max_seq("kpi") is None
        for i, expected in ((5, 5), (9, 9), (1, 9), (3, 9), (12, 12), (0, 12)):
            store.append("kpi", kpi(i))
            assert store.max_seq("kpi") == expected

    def test_capacity_aborts_not_evicts(self):
        small = TelemetryStore(max_records=3)
        for i in range(3):
            small.append("kpi", kpi(i))
        with pytest.raises(StoreFullError):
            small.append("kpi", kpi(3))
        assert small.count("kpi") == 3


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
            store.append("kpi", kpi(i))
        assert [r.seq for r in store.window("kpi", 0, 10)] == [1, 3, 5, 9]

    def test_open_end_reads_to_last_seq(self, store):
        for i in (5, 1, 9, 3):
            store.append("kpi", kpi(i))
        assert [r.seq for r in store.window("kpi")] == [1, 3, 5, 9]
        assert [r.seq for r in store.window("kpi", 4)] == [5, 9]
        assert TelemetryStore().window("labels", 3) == []

    def test_unknown_stream_distinct_from_empty(self, store):
        with pytest.raises(UnknownStreamError):
            store.window("ghost", 0, 10)


class TestJoin:
    def test_full_join(self, store):
        for i in range(100):
            store.append("kpi", kpi(i))
            store.append("labels", label(i))
        assert len(store.join_labels()) == 100

    def test_partial_join_cardinality(self, store):
        for i in range(100):
            store.append("kpi", kpi(i))
            if i >= 50:
                store.append("labels", label(i))
        assert len(store.join_labels()) == 50

    def test_disjoint_join_empty(self, store):
        for i in range(10):
            store.append("kpi", kpi(i))
            store.append("labels", label(i + 100))
        assert store.join_labels(to_seq=200) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_trailing_pairs_equal_tail_of_full_join(self, seed):
        rng = np.random.default_rng(seed)
        store = TelemetryStore()
        seqs = rng.choice(300, size=120, replace=False)  # sparse, out of order
        for seq in seqs:
            if rng.random() < 0.8:
                store.append("detections", DetectionRecord(int(seq), 0.2, LABEL_CLEAN, 1, 3))
            if rng.random() < 0.8 and rng.random() >= 0.2:  # some seqs unlabeled
                store.append("labels", label(int(seq)))
        for from_seq in (0, 150, 299, 400):
            full = store.join_detections(from_seq=from_seq)
            assert [d.seq for d, _ in full] == sorted(d.seq for d, _ in full)
            for last in (1, 7, 200):
                assert store.join_detections(from_seq=from_seq, last=last) == full[-last:]

    def test_last_must_be_positive(self, store):
        with pytest.raises(ValueError):
            store.join_detections(last=0)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["JSONL"])
    def test_kpi_round_trip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(17)
        originals = [kpi(i, snr=float(rng.normal(12, 8)), mcs=int(rng.integers(0, 29)),
                         bler=float(rng.uniform()), truth=bool(rng.integers(0, 2)))
                     for i in range(1000)]
        path = tmp_path / f"kpi.{fmt.lower()}"
        path.write_text("".join(json.dumps(to_wire(s)) + "\n" for s in originals))
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
        again = "".join(json.dumps(to_wire(r)) + "\n" for r in records)
        assert again.encode() == trace.read_bytes()

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

    @pytest.mark.parametrize("seqs", [(4, 2, 4), (3, 4, 4)])
    def test_repeated_seq_names_line(self, tmp_path, seqs):
        path = tmp_path / "dup.jsonl"
        path.write_text("".join(json.dumps(to_wire(kpi(i))) + "\n" for i in seqs))
        with pytest.raises(SchemaError, match=r"dup\.jsonl:3: seq 4 repeats an earlier line"):
            read_trace(path)

    def test_out_of_order_unique_seqs_read_in_file_order(self, tmp_path):
        path = tmp_path / "shuffled.jsonl"
        path.write_text("".join(json.dumps(to_wire(kpi(i))) + "\n" for i in (4, 0, 9, 2)))
        assert [s.seq for s in read_trace(path)[1]] == [4, 0, 9, 2]

    def test_string_truth_read_by_value(self, tmp_path):
        path = tmp_path / "strings.jsonl"
        rows = [dict(to_wire(kpi(i)), truth=t) for i, t in enumerate(["0", "1", "true"])]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert [s.truth_interference for s in read_trace(path)[1]] == [False, True, True]

    def test_export_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_detections(path, []) == 0
        assert path.read_text().strip() == "seq,prob,verdict,model_version,latency_us"

    def test_detections_csv_prob_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [DetectionRecord(i, float(rng.uniform()),
                                   LABEL_INTERFERENCE if i % 2 else LABEL_CLEAN, 3, 12 + i)
                   for i in range(200)]
        path = tmp_path / "det.csv"
        assert write_detections(path, records) == 200
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert [DetectionRecord(int(r["seq"]), float(r["prob"]), r["verdict"],
                                int(r["model_version"]), int(r["latency_us"]))
                for r in rows] == records  # prob exact: csv writes repr


class TestConcurrency:
    def test_concurrent_appenders_distinct_streams(self, store):
        import threading

        def put_kpi():
            for i in range(500):
                store.append("kpi", kpi(i))

        def put_labels():
            for i in range(500):
                store.append("labels", label(i))

        threads = [threading.Thread(target=put_kpi), threading.Thread(target=put_labels)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.count("kpi") == 500
        assert store.count("labels") == 500

    def test_interleaved_out_of_order_appenders_one_stream(self, store):
        # each thread's seqs land between the others': in-order appends and
        # bisected inserts race on one list while a reader joins
        import sys
        import threading
        n_threads, per_thread = 6, 400
        errors = []

        def put(k):
            try:
                for i in range(per_thread):
                    store.append("detections", DetectionRecord(
                        i * n_threads + k, 0.2, LABEL_CLEAN, 1, 3))
                    store.append("labels", label(i * n_threads + k))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def read():
            while any(t.is_alive() for t in writers):
                pairs = store.join_detections(last=50)
                if [d.seq for d, _ in pairs] != sorted(d.seq for d, _ in pairs):
                    errors.append(AssertionError("join out of seq order"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=put, args=(k,)) for k in range(n_threads)]
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
        n = n_threads * per_thread
        assert [r.seq for r in store.window("detections")] == list(range(n))
        assert len(store.join_detections()) == n
