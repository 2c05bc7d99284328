import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamloop.detector import DetectorXapp
from jamloop.labeler import LabelerConfig, two_means
from jamloop.manager import (ClosedLoop, DriftReport, LoopConfig, ModelRegistry,
                             ManagerError, TRIGGER_LOW_AGREEMENT, TRIGGER_NONE,
                             TRIGGER_NO_MODEL, deploy_if_better, monitor, retrain)
from jamloop.mlp import TrainConfig
from jamloop.scenarios import KpiSample, iter_stream, schedule_from_ids
from jamloop.store import (DetectionRecord, LABEL_CLEAN, LABEL_INTERFERENCE,
                           LabeledSample, RecordInvalidError, SeqOrderError, StoreError,
                           TelemetryStore)

import test_store
from test_labeler import duty_cycled_schedule


def kpi(seq, snr=10.0, truth=False):
    return KpiSample(seq=seq, ts_ms=seq * 100, snr_db=snr, mcs=10, bler=0.1,
                     truth_interference=truth)


def detection(seq, verdict, version=1):
    prob = 0.9 if verdict == LABEL_INTERFERENCE else 0.1
    return DetectionRecord(seq=seq, prob=prob, verdict=verdict, model_version=version)


def fill(store, n, verdict_of, label_of):
    test_store.write(store, "detections", [detection(i, verdict_of(i)) for i in range(n)])
    test_store.write(store, "labels", [LabeledSample(i, label_of(i)) for i in range(n)])


class TestMonitor:
    def test_perfect_agreement(self):
        store = TelemetryStore()
        fill(store, 100, lambda i: LABEL_CLEAN, lambda i: LABEL_CLEAN)
        report = monitor(store, window_size=100)
        assert report.agreement == 1.0
        assert not report.drifted
        assert report.trigger_reason == TRIGGER_NONE

    def test_boundary_agreement_is_not_drift(self):
        store = TelemetryStore()
        # exactly 85% agreement over a window of 200
        fill(store, 200,
             lambda i: LABEL_CLEAN,
             lambda i: LABEL_CLEAN if i % 200 < 170 else LABEL_INTERFERENCE)
        report = monitor(store, window_size=200, threshold=0.85)
        assert report.agreement == pytest.approx(0.85)
        assert not report.drifted

    def test_half_disagreement_drifts(self):
        store = TelemetryStore()
        fill(store, 200,
             lambda i: LABEL_CLEAN,
             lambda i: LABEL_CLEAN if i % 2 else LABEL_INTERFERENCE)
        report = monitor(store, window_size=200)
        assert report.agreement == pytest.approx(0.5)
        assert report.drifted
        assert report.trigger_reason == TRIGGER_LOW_AGREEMENT

    def test_zero_pairs(self):
        report = monitor(TelemetryStore())
        assert report.sample_count == 0
        assert not report.drifted

    def test_drifted_flag_must_match_reason(self):
        with pytest.raises(ValueError):
            DriftReport(0, 10, 0.5, 10, drifted=True, trigger_reason=TRIGGER_NONE)

    def test_confusion_counts(self):
        store = TelemetryStore()
        # detector jammed on seqs 0-59, labeler jammed on seqs 40-99
        fill(store, 100,
             lambda i: LABEL_INTERFERENCE if i < 60 else LABEL_CLEAN,
             lambda i: LABEL_INTERFERENCE if i >= 40 else LABEL_CLEAN)
        report = monitor(store, window_size=100)
        assert (report.tp, report.fp, report.fn, report.tn) == (20, 40, 40, 0)
        assert report.agreement == pytest.approx(0.2)


def reference_monitor(detections, labels, window_size, threshold, from_seq):
    """The full-join monitor the trailing join replaced, over plain record lists."""
    label_rows = {r.seq: r for r in labels if r.seq >= from_seq}
    pairs = [(d, label_rows[d.seq]) for d in sorted(detections, key=lambda d: d.seq)
             if d.seq >= from_seq and d.seq in label_rows]
    pairs = pairs[-window_size:]
    if not pairs:
        return DriftReport(from_seq, from_seq, None, 0, False, TRIGGER_NONE)
    agree = sum(1 for det, lab in pairs if det.verdict == lab.label) / len(pairs)
    drifted = agree < threshold
    confusion = [sum(1 for det, lab in pairs
                     if (det.verdict == LABEL_INTERFERENCE) == d_jam
                     and (lab.label == LABEL_INTERFERENCE) == l_jam)
                 for d_jam, l_jam in ((True, True), (True, False), (False, True),
                                      (False, False))]
    return DriftReport(pairs[0][0].seq, pairs[-1][0].seq, agree, len(pairs), drifted,
                       TRIGGER_LOW_AGREEMENT if drifted else TRIGGER_NONE, *confusion)


class TestMonitorMatchesFullJoin:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_store(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        seqs = sorted(int(q) for q in rng.choice(3 * n + 1, size=n, replace=False))
        store, detections, labels = TelemetryStore(), [], []
        for seq in seqs:
            if rng.random() < 0.85:  # some labeled seqs have no detection
                d = detection(seq, LABEL_INTERFERENCE if rng.random() < 0.5 else LABEL_CLEAN)
                test_store.put(store, "detections", d)
                detections.append(d)
            if rng.random() < 0.9:
                u = rng.random()
                if u < 0.15:  # this seq stays unlabeled
                    continue
                lab = LabeledSample(seq, LABEL_INTERFERENCE if u < 0.6 else LABEL_CLEAN)
                test_store.put(store, "labels", lab)
                labels.append(lab)
        top = seqs[-1] if seqs else 0
        for from_seq in (0, top // 3, top // 2, top, top + 1, top + 50):
            for window_size in (1, 13, 200, 1000):
                for threshold in (0.5, 0.85):
                    assert monitor(store, window_size, threshold, from_seq) == \
                        reference_monitor(detections, labels, window_size, threshold,
                                          from_seq), (from_seq, window_size)


class TestMonitorColumns:
    seq_runs = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 40)), max_size=8)

    @settings(max_examples=100, deadline=None)
    @given(starts=st.tuples(st.integers(0, 4), st.integers(0, 4)), label_runs=seq_runs,
           detection_runs=seq_runs, halved=st.tuples(*[st.sets(st.integers(1, 200),
                                                                max_size=3)] * 2),
           jams=st.tuples(*[st.lists(st.booleans(), min_size=320, max_size=320)] * 2),
           inside=st.integers(0, 200), threshold=st.sampled_from([0.0, 0.5, 0.85, 1.01]))
    def test_counts_match_dict_count_over_join(self, starts, label_runs, detection_runs,
                                               halved, jams, inside, threshold):
        # runs with gaps, some seqs halved in one stream only: the report's counts
        # and window seqs are those of `join_detections`' pairs, counted in a dict,
        # and every field has its exact Python type
        store = TelemetryStore()
        label_seqs, detection_seqs = (
            test_store.TestJoin.run_seqs(start, runs, halves)
            for start, runs, halves in zip(starts, (label_runs, detection_runs), halved))
        verdict_of = dict(zip(detection_seqs, jams[0]))
        test_store.write(store, "labels",
                         [LabeledSample(q, LABEL_INTERFERENCE if jam else LABEL_CLEAN)
                          for q, jam in zip(label_seqs, jams[1])])
        test_store.write(store, "detections",
                         [detection(q, LABEL_INTERFERENCE if verdict_of[q] else LABEL_CLEAN)
                          for q in detection_seqs])
        past = max(label_seqs + detection_seqs, default=0) + 1
        for from_seq in (0, inside, past):
            for window_size in (1, 7, 200):
                report = monitor(store, window_size, threshold, from_seq)
                pairs = store.join_detections(from_seq, window_size)
                counts = {}
                for d, lab in pairs:
                    key = (d.verdict == LABEL_INTERFERENCE, lab.label == LABEL_INTERFERENCE)
                    counts[key] = counts.get(key, 0) + 1
                tp, fp, fn, tn = (counts.get(k, 0) for k in ((True, True), (True, False),
                                                              (False, True), (False, False)))
                assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)
                assert report.sample_count == len(pairs)
                first, end = (pairs[0][0].seq, pairs[-1][0].seq) if pairs else (from_seq,) * 2
                assert (report.window_start_seq, report.window_end_seq) == (first, end)
                assert type(report.window_start_seq) is type(first)
                assert type(report.window_end_seq) is type(end)
                assert [type(v) for v in (report.tp, report.fp, report.fn, report.tn,
                                          report.sample_count)] == [int] * 5
                assert type(report.drifted) is bool
                if pairs:
                    assert type(report.agreement) is float
                    assert report.agreement == (tp + tn) / len(pairs)
                    assert report.drifted == (report.agreement < threshold)
                else:
                    assert report.agreement is None and not report.drifted


def make_labeled_history(store, n=400, seed=0):
    rng = np.random.default_rng(seed)
    for i in range(n):
        jam = i % 2 == 0
        snr = 8.0 + 0.5 * rng.standard_normal() if jam else 25.0 + 0.5 * rng.standard_normal()
        store.append("kpi", kpi(i, snr=float(snr)))
        test_store.put(store, "labels",
                       LabeledSample(i, LABEL_INTERFERENCE if jam else LABEL_CLEAN))


class TestRetrain:
    def test_first_retrain_trains_and_registers(self, tmp_path):
        store = TelemetryStore()
        make_labeled_history(store)
        registry = ModelRegistry(tmp_path / "models")
        outcome = retrain(store, TrainConfig(seed=1, epochs=15), registry)
        assert outcome.entry is not None
        assert outcome.entry.version == 1
        assert outcome.entry.val_accuracy >= 0.95
        assert not outcome.entry.deployed

    def test_single_class_history_noop(self, tmp_path):
        store = TelemetryStore()
        for i in range(100):
            store.append("kpi", kpi(i))
            test_store.put(store, "labels", LabeledSample(i, LABEL_CLEAN))
        registry = ModelRegistry(tmp_path / "models")
        outcome = retrain(store, TrainConfig(seed=1), registry)
        assert outcome.entry is None
        assert "single-class" in outcome.skipped_reason
        assert registry.entries == []

    def test_split_without_training_rows_skipped(self, tmp_path):
        store = TelemetryStore()
        for i in range(10):
            store.append("kpi", kpi(i, snr=25.0 if i % 2 else 8.0))
            test_store.put(store, "labels",
                           LabeledSample(i, LABEL_CLEAN if i % 2 else LABEL_INTERFERENCE))
        registry = ModelRegistry(tmp_path / "models")
        outcome = retrain(store, TrainConfig(seed=1, val_fraction=0.95), registry)
        assert outcome.entry is None
        assert "leaves no training rows" in outcome.skipped_reason
        assert outcome.history_high_seq == 9
        assert registry.entries == []

    def test_class_without_training_rows_skipped(self, tmp_path):
        # one INTERFERENCE row of 31: the split keeps it for validation
        store = TelemetryStore()
        for i in range(31):
            store.append("kpi", kpi(i, snr=8.0 if i == 30 else 25.0))
            label = LABEL_INTERFERENCE if i == 30 else LABEL_CLEAN
            test_store.put(store, "labels", LabeledSample(i, label))
        registry = ModelRegistry(tmp_path / "models")
        outcome = retrain(store, TrainConfig(seed=1), registry)
        assert outcome.entry is None
        assert outcome.skipped_reason == ("val_fraction 0.2 leaves no interference "
                                          "training rows of 1")
        assert outcome.history_high_seq == 30
        assert registry.entries == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    def test_diverging_fit_skipped(self, tmp_path):
        store = TelemetryStore()
        make_labeled_history(store)
        registry = ModelRegistry(tmp_path / "models")
        outcome = retrain(store, TrainConfig(seed=1, epochs=5, learning_rate=1e300), registry)
        assert outcome.entry is None
        assert outcome.skipped_reason.startswith("fit diverged")
        assert registry.entries == []

    @pytest.mark.parametrize("seed", range(10))
    def test_training_rows_match_record_join(self, tmp_path, monkeypatch, seed):
        # kpi and labels with gaps, some seqs halved in one stream only: the rows
        # `retrain` fits from the column join are those the `join_labels` records
        # give, row for row and bit for bit
        from jamloop import mlp
        rng = np.random.default_rng(seed)
        runs = [[tuple(int(v) for v in rng.integers((0, 1), (4, 40))) for _ in range(6)]
                for _ in range(2)]
        kpi_seqs, label_seqs = (test_store.TestJoin.run_seqs(
            int(rng.integers(0, 5)), r, set(rng.integers(1, 150, 2).tolist())) for r in runs)
        store = TelemetryStore()
        test_store.write(store, "kpi", [KpiSample(q, 0, float(rng.normal(15, 8)),
                                                  int(rng.integers(0, 29)), float(rng.random()),
                                                  False) for q in kpi_seqs])
        test_store.write(store, "labels", [LabeledSample(q, LABEL_INTERFERENCE
                                                         if rng.random() < 0.5 else LABEL_CLEAN)
                                           for q in label_seqs])
        fitted = []

        def capture(dataset, cfg, version):
            fitted.append(dataset)
            raise mlp.TrainingError("captured")

        monkeypatch.setattr(mlp, "train", capture)
        outcome = retrain(store, TrainConfig(seed=1), ModelRegistry(tmp_path / "models"))
        pairs = store.join_labels()
        assert len(pairs) > 10 and len(pairs) < min(len(kpi_seqs), len(label_seqs))
        want = [((s.snr_db, s.bler, float(s.mcs)), int(lab.label == LABEL_INTERFERENCE))
                for s, lab in pairs]
        (rows,) = fitted
        assert rows == want
        assert [(tuple(map(float.hex, f)), type(y), y) for f, y in rows] == \
            [(tuple(map(float.hex, f)), int, y) for f, y in want]
        assert outcome.skipped_reason == "captured"
        assert outcome.history_high_seq == pairs[-1][0].seq

    def test_repeat_retrain_same_history_identical_weights_new_version(self, tmp_path):
        from jamloop import mlp
        store = TelemetryStore()
        make_labeled_history(store)
        registry = ModelRegistry(tmp_path / "models")
        cfg = TrainConfig(seed=5, epochs=10)
        e1 = retrain(store, cfg, registry).entry
        e2 = retrain(store, cfg, registry).entry
        assert (e1.version, e2.version) == (1, 2)
        m1, m2 = (mlp.load(registry.model_path(e.version)) for e in (e1, e2))
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)


class TestDeployIfBetter:
    def _entry(self, tmp_path, val_accuracy, seed=1):
        store = TelemetryStore()
        make_labeled_history(store, seed=seed)
        registry = ModelRegistry(tmp_path / "models")
        entry = retrain(store, TrainConfig(seed=seed, epochs=15), registry).entry
        entry.val_accuracy = val_accuracy
        return entry, registry

    def test_above_gate_deploys(self, tmp_path):
        entry, registry = self._entry(tmp_path, 0.97)
        det = DetectorXapp()
        decision = deploy_if_better(entry, det, registry)
        assert decision.deployed
        assert decision.receipt is not None
        assert det.deployed_version == entry.version
        assert registry.deployed_entry().version == entry.version

    def test_below_gate_retained_not_deployed(self, tmp_path):
        entry, registry = self._entry(tmp_path, 0.80)
        det = DetectorXapp()
        decision = deploy_if_better(entry, det, registry)
        assert not decision.deployed
        assert det.deployed_version is None
        assert registry.deployed_entry() is None
        assert registry.entries  # model retained

    def test_redeploy_rejected(self, tmp_path):
        entry, registry = self._entry(tmp_path, 0.97)
        det = DetectorXapp()
        assert deploy_if_better(entry, det, registry).deployed
        decision = deploy_if_better(entry, det, registry)
        assert not decision.deployed
        assert "already deployed" in decision.reason

    def test_entry_without_holdout_accuracy_not_deployed(self, tmp_path):
        # `register` (and so `jamloop deploy`) records val_accuracy None
        from jamloop import mlp
        registry = ModelRegistry(tmp_path / "models")
        path = tmp_path / "outside.model"
        mlp.save(mlp.init_model(1, version=1), path)
        entry = registry.register(path, 1, {"source": "manual deploy"})
        journal = (tmp_path / "models" / "registry.jsonl").read_text()
        det = DetectorXapp()
        decision = deploy_if_better(entry, det, registry)
        assert (decision.deployed, decision.version) == (False, 1)
        assert decision.reason == "no holdout accuracy to gate"
        assert det.deployed_version is None
        assert (tmp_path / "models" / "registry.jsonl").read_text() == journal
        assert ModelRegistry(tmp_path / "models").deployed_entry() is None

    def test_moved_registry_loads_its_models(self, tmp_path):
        # journal lines written before the move still find their model files
        store = TelemetryStore()
        make_labeled_history(store)
        registry = ModelRegistry(tmp_path / "models")
        cfg = TrainConfig(seed=1, epochs=5)
        e1 = retrain(store, cfg, registry).entry
        retrain(store, cfg, registry)
        det = DetectorXapp()
        assert deploy_if_better(e1, det, registry, gate=0.0).deployed
        (tmp_path / "models").rename(tmp_path / "moved")
        moved = ModelRegistry(tmp_path / "moved")
        assert deploy_if_better(moved.entries[1], det, moved, gate=0.0).deployed
        assert det.deployed_version == 2
        assert ModelRegistry(tmp_path / "moved").deployed_entry().version == 2
        assert '"path"' not in (tmp_path / "moved" / "registry.jsonl").read_text()

    def test_registry_versions_unique_dense(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        store = TelemetryStore()
        make_labeled_history(store)
        cfg = TrainConfig(seed=2, epochs=5)
        versions = [retrain(store, cfg, registry).entry.version for _ in range(3)]
        assert versions == [1, 2, 3]
        with pytest.raises(ManagerError):
            registry.mark_deployed(99)


class TestRegistryJournal:
    def _registry_with_two(self, tmp_path):
        from jamloop import mlp
        registry = ModelRegistry(tmp_path / "models")
        for version in (1, 2):
            src = tmp_path / f"src{version}.model"
            mlp.save(mlp.init_model(version, version=version), src)
            registry.register(src, version, {"source": "test"})
        return registry

    def test_failed_rewrite_leaves_old_journal(self, tmp_path, monkeypatch):
        import json
        registry = self._registry_with_two(tmp_path)
        journal = tmp_path / "models" / "registry.jsonl"
        before = journal.read_bytes()
        dumps, calls = json.dumps, []

        def failing_dumps(obj, **kw):
            calls.append(obj)
            if len(calls) == 2:
                raise OSError("disk gone")
            return dumps(obj, **kw)

        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(OSError):
            registry.mark_deployed(1)
        monkeypatch.undo()
        assert len(calls) == 2  # the write did fail partway
        assert journal.read_bytes() == before
        assert sorted(p.name for p in journal.parent.iterdir()) == [
            "registry.jsonl", "v001.model", "v002.model"]
        reloaded = ModelRegistry(tmp_path / "models")
        assert [(e.version, e.deployed) for e in reloaded.entries] == [(1, False), (2, False)]

    def test_failed_writes_keep_memory_and_disk_equal(self, tmp_path, monkeypatch):
        import json
        from jamloop import mlp
        registry = ModelRegistry(tmp_path / "models")
        src = tmp_path / "src.model"
        mlp.save(mlp.init_model(1, version=1), src)
        registry.register(src, 1, {"source": "test"})

        def failing_dumps(obj, **kw):
            raise OSError("disk gone")

        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(OSError):
            registry.mark_deployed(1)
        with pytest.raises(OSError):
            registry.register(src, 2, {"source": "test"})
        monkeypatch.undo()
        reloaded = ModelRegistry(tmp_path / "models")
        for reg in (registry, reloaded):
            assert reg.deployed_entry() is None
            assert reg.next_version() == 2
        assert [e.__dict__ for e in registry.entries] == [e.__dict__ for e in reloaded.entries]
        assert sorted(p.name for p in (tmp_path / "models").iterdir()) == [
            "registry.jsonl", "v001.model"]

    def test_corrupt_line_names_file_and_line(self, tmp_path):
        import json
        self._registry_with_two(tmp_path)
        journal = tmp_path / "models" / "registry.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n{\"version\": 2, \"pa\n")
        with pytest.raises(ManagerError, match=r"registry\.jsonl:2"):
            ModelRegistry(tmp_path / "models")
        journal.write_text(lines[0] + "\n[2]\n")
        with pytest.raises(ManagerError, match=r"registry\.jsonl:2"):
            ModelRegistry(tmp_path / "models")
        first, second = (json.loads(line) for line in lines)
        for edit in ({"version": "2"}, {"version": 2.0}, {"version": True}, {"version": 1},
                     {"version": 0}, {"deployed": "yes"}, {"deployed": 1},
                     {"val_accuracy": 1.5}, {"val_accuracy": -0.1}, {"val_accuracy": "0.9"},
                     {"val_accuracy": True}, {"val_accuracy": float("nan")},
                     {"created_at": "yesterday"}, {"created_at": True}, {"created_at": None},
                     {"created_at": float("inf")}, {"created_at": float("nan")},
                     {"train_report": [1]}, {"train_report": None}, {"train_report": "ok"}):
            journal.write_text(json.dumps(first) + "\n" + json.dumps({**second, **edit}) + "\n")
            with pytest.raises(ManagerError, match=r"registry\.jsonl:2: corrupt"):
                ModelRegistry(tmp_path / "models")
        journal.write_text("".join(json.dumps(dict(d, deployed=True)) + "\n"
                                   for d in (first, second)))
        with pytest.raises(ManagerError, match=r"registry\.jsonl:2: .*deployed already"):
            ModelRegistry(tmp_path / "models")

    def test_valid_fields_load(self, tmp_path):
        import json
        self._registry_with_two(tmp_path)
        journal = tmp_path / "models" / "registry.jsonl"
        first, second = journal.read_text().splitlines()
        edits = [{"val_accuracy": 0, "deployed": True, "created_at": 0},
                 {"val_accuracy": 1.0, "train_report": {}}]
        journal.write_text("".join(json.dumps({**json.loads(line), **edit}) + "\n"
                                   for line, edit in zip((first, second), edits)))
        registry = ModelRegistry(tmp_path / "models")
        assert [(e.version, e.val_accuracy, e.deployed) for e in registry.entries] == [
            (1, 0, True), (2, 1.0, False)]

    def test_older_path_key_loads(self, tmp_path):
        # journals once named each model file in a `path` key
        import json
        registry = self._registry_with_two(tmp_path)
        journal = tmp_path / "models" / "registry.jsonl"
        docs = [json.loads(line) for line in journal.read_text().splitlines()]
        journal.write_text("".join(json.dumps(
            {**d, "path": str(tmp_path / "models" / f"v{d['version']:03d}.model")}) + "\n"
            for d in docs))
        reloaded = ModelRegistry(tmp_path / "models")
        assert [(e.version, e.val_accuracy, e.deployed, e.train_report)
                for e in reloaded.entries] == [
            (e.version, e.val_accuracy, e.deployed, e.train_report) for e in registry.entries]
        assert reloaded.next_version() == 3

    def test_train_report_records_epochs_run(self, tmp_path):
        import json
        store = TelemetryStore()
        make_labeled_history(store)
        registry = ModelRegistry(tmp_path / "models")
        entry = retrain(store, TrainConfig(seed=1, epochs=15), registry).entry
        report = entry.train_report
        # separable history: the fit stops at its first perfect holdout epoch
        assert (entry.val_accuracy, report["epochs_run"]) == (1.0, report["best_epoch"] + 1)
        assert report["epochs_run"] < 15
        assert ModelRegistry(tmp_path / "models").entries[0].train_report == report
        # journals written before epochs_run was recorded still open
        journal = tmp_path / "models" / "registry.jsonl"
        doc = json.loads(journal.read_text())
        del doc["train_report"]["epochs_run"]
        journal.write_text(json.dumps(doc) + "\n")
        older = ModelRegistry(tmp_path / "models").entries[0].train_report
        assert older == {k: v for k, v in report.items() if k != "epochs_run"}

    def test_register_rejects_version_gap(self, tmp_path):
        registry = self._registry_with_two(tmp_path)
        with pytest.raises(ManagerError, match="expected 3"):
            registry.register(tmp_path / "src1.model", 5, {})


def run_loop_over(ids, seed=3, duration=300, labeler_cfg=None, loop_cfg=None,
                  registry_dir=None, store=None):
    sched = schedule_from_ids(ids, seed=seed, duration_samples=duration)
    store = store if store is not None else TelemetryStore()
    det = DetectorXapp()
    registry = ModelRegistry(registry_dir)
    loop = ClosedLoop(store, det, registry,
                      labeler_cfg or LabelerConfig(),
                      loop_cfg or LoopConfig(train=TrainConfig(seed=seed, epochs=15)))
    for s in iter_stream(sched):
        loop.process(s)
    transcript = loop.close()
    return store, det, registry, transcript


class TestClosedLoop:
    @pytest.mark.parametrize("labeler_cfg,loop_cfg,match", [
        (LabelerConfig(), LoopConfig(monitor_window=0), "monitor_window"),
        (LabelerConfig(), LoopConfig(deploy_gate=1.5), "deploy_gate"),
        (LabelerConfig(), LoopConfig(drift_threshold=-1.0), "drift_threshold"),
        (LabelerConfig(), LoopConfig(train=TrainConfig(epochs=0)), "epochs"),
        (LabelerConfig(window_size=3), LoopConfig(), "window_size"),
    ], ids=["monitor_window", "deploy_gate", "drift_threshold", "train_epochs",
            "labeler_window"])
    def test_invalid_config_rejected_when_built(self, tmp_path, labeler_cfg, loop_cfg,
                                                 match):
        with pytest.raises(ValueError, match=match):
            ClosedLoop(TelemetryStore(), DetectorXapp(), ModelRegistry(tmp_path / "m"),
                       labeler_cfg, loop_cfg)

    def test_cold_start_single_train_and_deploy(self, tmp_path):
        # clean bootstrap then a jammed segment: one NO_MODEL train + deploy
        store, det, registry, transcript = run_loop_over(
            [2, 1, 2, 1], seed=3, registry_dir=tmp_path / "m")
        deploys = [e for e in transcript if e["event"] == "deploy" and e["deployed"]]
        retrains = [e for e in transcript if e["event"] == "retrain"]
        assert len(deploys) == 1
        assert len(retrains) == 1
        no_model = [e for e in transcript if e["event"] == "drift_report"
                    and e["trigger_reason"] == TRIGGER_NO_MODEL]
        assert no_model  # cold start visible in transcript
        assert det.deployed_version == 1
        # exactly-once detection over the whole stream once deployed
        assert store.count("detections") == store.count("kpi")

    def test_converged_stream_no_further_retrains(self, tmp_path):
        store, det, registry, transcript = run_loop_over(
            [2, 1] * 4, seed=6, registry_dir=tmp_path / "m")
        retrains = [e for e in transcript if e["event"] == "retrain"]
        assert len(retrains) == 1  # the cold-start train only

    def test_unseen_regime_triggers_single_retrain_and_deploy(self, tmp_path):
        # deployed model knows scenarios 2/1; scenario 7 (-20 dB, new class)
        # disagrees with the labeler until one retrain fixes it
        store, det, registry, transcript = run_loop_over(
            [2, 1, 2, 7, 8], seed=9, registry_dir=tmp_path / "m")
        drift_events = [e for e in transcript if e["event"] == "drift_report"
                        and e["trigger_reason"] == TRIGGER_LOW_AGREEMENT]
        assert drift_events, "expected a low-agreement drift report"
        transition_seq = 900  # scenario 7 starts here
        first_drift = drift_events[0]
        assert first_drift["window_end_seq"] - transition_seq <= 400
        post_deploys = [e for e in transcript if e["event"] == "deploy"
                        and e["deployed"] and e["kpi_high_seq"] >= transition_seq]
        post_retrains = [e for e in transcript if e["event"] == "retrain"
                         and e.get("history_high_seq", 0) >= transition_seq]
        assert len(post_deploys) == 1
        assert len(post_retrains) == 1
        assert det.deployed_version == 2
        # each fit's size and checkpoint epoch are in the transcript
        retrains = [e for e in transcript if e["event"] == "retrain"]
        assert len(retrains) == 2
        assert all(isinstance(e["best_epoch"], int) for e in retrains)
        assert retrains[0]["n_rows"] < retrains[1]["n_rows"]

    def test_detections_match_per_sample_infer(self, tmp_path):
        # each sample is detected by the model deployed when it arrived, or by
        # the first model if none was; verdicts as a per-sample `infer` gives
        from jamloop import mlp
        sched = schedule_from_ids([2, 1, 2, 7, 8], seed=9, duration_samples=300)
        store, det = TelemetryStore(), DetectorXapp()
        registry = ModelRegistry(tmp_path / "m")
        loop = ClosedLoop(store, det, registry, LabelerConfig(),
                          LoopConfig(train=TrainConfig(seed=9, epochs=15)))
        samples, version_at_arrival = [], []
        for s in iter_stream(sched):
            version_at_arrival.append(det.deployed_version)
            samples.append(s)
            loop.process(s)
        loop.close()
        first = next(v for v in version_at_arrival if v is not None)
        assert version_at_arrival[-1] > first  # a deploy in mid-run
        paths = {e.version: registry.model_path(e.version) for e in registry.entries}
        models = {}
        for version in set(version_at_arrival) - {None}:
            models[version] = DetectorXapp()
            models[version].swap_model(mlp.load(paths[version]))
        expected = []
        for s, v in zip(samples, version_at_arrival):
            rec = models[v or first].infer(s.public())
            expected.append((rec.seq, rec.verdict, rec.model_version))
        got = [(d.seq, d.verdict, d.model_version) for d in store.window("detections")]
        assert got == expected

    def test_transcript_of_steady_loop_is_plain_json(self, tmp_path):
        # alternating OFF/ON segments that do not align with the 100-sample windows
        _, _, _, transcript = run_loop_over([2, 3, 2, 3], seed=7, duration=350,
                                            registry_dir=tmp_path / "models")
        assert {ev["event"] for ev in transcript} >= {"drift_report", "retrain", "deploy",
                                                      "close"}
        for ev in transcript:
            assert json.loads(json.dumps(ev, allow_nan=False)) == ev
            assert {type(v) for v in ev.values()} <= {str, int, float, bool, type(None)}

    def test_batch_writes_match_per_row_writes(self, tmp_path):
        class PerRowStore(TelemetryStore):
            column_writes = 0

            def extend_columns(self, stream, seqs, *fields):
                self.column_writes += 1
                for row in zip(seqs, *fields):
                    super().extend_columns(stream, *([value] for value in row))
                return self.count(stream)

        runs = [run_loop_over([2, 1, 2, 7, 8], seed=9, registry_dir=tmp_path / name,
                              store=store)
                for name, store in (("batched", TelemetryStore()),
                                    ("per_row", PerRowStore()))]
        (batched, _, _, transcript), (per_row, _, _, per_row_transcript) = runs
        assert per_row.column_writes > 0
        assert transcript == per_row_transcript
        assert batched.window("kpi") == per_row.window("kpi")
        assert batched.window("labels") == per_row.window("labels")
        assert batched.window("detections") == per_row.window("detections")
        assert batched.count("detections") == batched.count("kpi") == 1500

    @pytest.mark.parametrize("period", [5, 20, 150])
    def test_intermittent_jamming_detected_after_deploy(self, tmp_path, monkeypatch, period):
        # a jammer that switches on and off every `period` samples; at periods
        # 5 and 20 every 100-sample window of the duty cycle holds both levels
        # and is split by 2-means, at 150 most windows hold one level
        splits = []

        def counted(points, snr_col):
            splits.append(len(points))
            return two_means(points, snr_col)

        monkeypatch.setattr("jamloop.labeler.two_means", counted)
        samples = list(iter_stream(duty_cycled_schedule(period, seed=7)))
        store = TelemetryStore()
        loop = ClosedLoop(store, DetectorXapp(), ModelRegistry(tmp_path / "models"))
        for s in samples:
            loop.process(s)
        deploy_seq = next(ev["kpi_high_seq"] for ev in loop.close()
                          if ev["event"] == "deploy" and ev["deployed"])
        verdicts = {d.seq: d.verdict for d in store.window("detections")}
        post = [s for s in samples if s.seq > deploy_seq]
        accuracy = sum((verdicts[s.seq] == LABEL_INTERFERENCE) == s.truth_interference
                       for s in post) / len(post)
        assert accuracy >= 0.95
        duty_windows = 3000 // 100
        if period < 100:
            assert len(splits) >= duty_windows
        else:
            assert 0 < len(splits) < duty_windows // 2

    @pytest.mark.parametrize("fault", ["swapped_pair", "repeated_sample", "invalid_bler"])
    def test_out_of_order_sample_refused_and_loop_goes_on(self, tmp_path, fault):
        # the store refuses the sample at its kpi append, before it reaches the
        # loop's buffers, so every later window is labeled and detected
        samples = list(iter_stream(schedule_from_ids([2, 3, 2, 3], 7, 300)))
        assert len(samples) == 1200
        error = SeqOrderError
        if fault == "swapped_pair":
            samples[150], samples[151] = samples[151], samples[150]
        elif fault == "repeated_sample":
            samples.insert(151, samples[150])
        else:
            samples[151] = samples[151]._replace(bler=1.5)
            error = RecordInvalidError
        store = TelemetryStore()
        loop = ClosedLoop(store, DetectorXapp(), ModelRegistry(tmp_path / "models"))
        refused = []
        for i, s in enumerate(samples):
            try:
                loop.process(s)
            except StoreError as exc:
                refused.append((i, type(exc)))
        assert refused == [(151, error)]
        close = loop.close()[-1]
        n = 1200 if fault == "repeated_sample" else 1199
        assert (close["kpi_count"], close["label_count"], close["detection_count"]) == (n,) * 3
        kept = [s.seq for s in samples[:151] + samples[152:]]
        assert len(kept) == n
        for stream in ("kpi", "labels", "detections"):
            assert [r.seq for r in store.window(stream)] == kept

    def test_loop_never_reads_truth(self, tmp_path):
        # the loop's label/detect path operates on FeatureSample views only
        import inspect
        from jamloop import manager
        src = inspect.getsource(manager)
        assert "truth_interference" not in src
