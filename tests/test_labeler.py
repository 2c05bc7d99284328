import itertools

import numpy as np
import pytest

from jamloop.labeler import (BaselineState, LabelerConfig, LabelerError,
                             label_window, run_labeler, two_means)
from jamloop.scenarios import FeatureSample, schedule_from_ids, synth_stream
from jamloop.store import (LABEL_CLEAN, LABEL_INTERFERENCE, TelemetryStore)


def feature(seq, snr, bler=0.1, mcs=10):
    return FeatureSample(seq=seq, ts_ms=seq * 100, snr_db=snr, mcs=mcs, bler=bler)


def two_cluster_window(n_clean=50, n_jam=50, clean_snr=25.0, jam_snr=7.9, seed=0):
    rng = np.random.default_rng(seed)
    window = []
    for i in range(n_clean):
        window.append(feature(i, clean_snr + 0.5 * rng.standard_normal(),
                              bler=float(rng.uniform(0, 0.2))))
    for i in range(n_jam):
        window.append(feature(n_clean + i, jam_snr + 0.5 * rng.standard_normal(),
                              bler=float(rng.uniform(0.6, 1.0))))
    return window


CFG = LabelerConfig()


class TestLabelWindow:
    def test_two_cluster_window_split_correctly(self):
        window = two_cluster_window()
        labels, _ = label_window(window, BaselineState(), CFG)
        got = [lab.label for lab in labels]
        # boundary slack: at most smoothing_halfwidth flips next to the split
        assert got[:50 - CFG.smoothing_halfwidth] == [LABEL_CLEAN] * (50 - CFG.smoothing_halfwidth)
        assert got[50 + CFG.smoothing_halfwidth:] == [LABEL_INTERFERENCE] * (50 - CFG.smoothing_halfwidth)

    def test_all_clean_window_via_fallback(self):
        baseline = BaselineState()
        baseline.update([25.0] * 200, CFG.baseline_quantile)
        rng = np.random.default_rng(2)
        window = [feature(i, 25.0 + 0.5 * rng.standard_normal()) for i in range(100)]
        labels, _ = label_window(window, baseline, CFG)
        assert all(lab.label == LABEL_CLEAN for lab in labels)

    def test_all_jammed_window_via_fallback(self):
        baseline = BaselineState()
        baseline.update([25.0] * 200, CFG.baseline_quantile)
        rng = np.random.default_rng(2)
        window = [feature(i, 8.0 + 0.5 * rng.standard_normal(), bler=0.9)
                  for i in range(100)]
        labels, _ = label_window(window, baseline, CFG)
        assert all(lab.label == LABEL_INTERFERENCE for lab in labels)

    def test_empty_window_rejected(self):
        with pytest.raises(LabelerError):
            label_window([], BaselineState(), CFG)

    def test_constant_features_no_division_by_zero(self):
        window = [feature(i, 15.0, bler=0.2) for i in range(20)]
        labels, _ = label_window(window, BaselineState(), CFG)
        assert len(labels) == 20

    def test_deterministic(self):
        window = two_cluster_window(seed=9)
        baseline = BaselineState()
        baseline.update([25.0] * 100, CFG.baseline_quantile)
        a, _ = label_window(window, baseline, CFG)
        b, _ = label_window(window, baseline, CFG)
        assert a == b

    def test_label_count_conservation(self):
        for n in (1, 3, 7, 50, 100):
            window = [feature(i, 20.0 + i * 0.01) for i in range(n)]
            labels, _ = label_window(window, BaselineState(), CFG)
            assert len(labels) == n

    def test_baseline_updates_from_clean_samples(self):
        window = two_cluster_window(seed=1)
        baseline_in = BaselineState()
        _, baseline_out = label_window(window, baseline_in, CFG)
        assert baseline_out.sample_count > 0
        assert baseline_out.clean_snr_median_db == pytest.approx(25.0, abs=0.5)
        assert baseline_in.sample_count == 0  # input state untouched

    def test_high_gap_agreement_outside_transition(self):
        # 10 dB cluster gap, sigma 0.5: perfect labels outside +-halfwidth
        rng = np.random.default_rng(33)
        window = []
        for i in range(60):
            window.append(feature(i, 22.0 + 0.5 * rng.standard_normal(), bler=0.1))
        for i in range(60, 100):
            window.append(feature(i, 12.0 + 0.5 * rng.standard_normal(), bler=0.8))
        labels, _ = label_window(window, BaselineState(), CFG)
        hw = CFG.smoothing_halfwidth
        for lab, truth in zip(labels[:60 - hw], [LABEL_CLEAN] * (60 - hw)):
            assert lab.label == truth
        for lab in labels[60 + hw:]:
            assert lab.label == LABEL_INTERFERENCE


def brute_force_min_wcss(points):
    """Oracle: enumerate every 2-partition, return minimum WCSS."""
    n = len(points)
    best = np.inf
    for mask in range(1, 2 ** n - 1):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        cost = 0.0
        for part in (points[sel], points[~sel]):
            c = part.mean(axis=0)
            cost += float(((part - c) ** 2).sum())
        best = min(best, cost)
    return best


def wcss_of(points, assign):
    cost = 0.0
    for cls in (0, 1):
        part = points[assign == cls]
        if len(part):
            c = part.mean(axis=0)
            cost += float(((part - c) ** 2).sum())
    return cost


class TestTwoMeansOracle:
    def test_matches_exhaustive_on_small_windows(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            pts = rng.normal(0, 1, size=(n, 2))
            assign = two_means(pts, pts[:, 0])
            assert wcss_of(pts, assign) == pytest.approx(brute_force_min_wcss(pts),
                                                         rel=1e-9)

    def test_large_separated_window(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([rng.normal(0, 0.3, (40, 2)), rng.normal(5, 0.3, (40, 2))])
        assign = two_means(pts, pts[:, 0])
        assert len(set(assign[:40])) == 1
        assert len(set(assign[40:])) == 1
        assert assign[0] != assign[-1]


class TestRunLabeler:
    def test_label_count_matches_sample_count(self):
        sched = schedule_from_ids([2, 1], seed=4, duration_samples=150)
        store = TelemetryStore()
        synth_stream(sched, sink=lambda s: store.append("kpi", s))
        run_labeler(store)
        assert store.count("labels") == store.count("kpi") == 300

    def test_partial_final_window_labeled(self):
        sched = schedule_from_ids([2], seed=4, duration_samples=130)
        store = TelemetryStore()
        synth_stream(sched, sink=lambda s: store.append("kpi", s))
        run_labeler(store, LabelerConfig(window_size=100))
        assert store.count("labels") == 130

    def test_rerun_rejects_duplicates_store_unchanged(self):
        sched = schedule_from_ids([2], seed=4, duration_samples=100)
        store = TelemetryStore()
        synth_stream(sched, sink=lambda s: store.append("kpi", s))
        run_labeler(store)
        before = store.window("labels")
        with pytest.raises(LabelerError, match="already holds labels"):
            run_labeler(store)
        assert store.window("labels") == before
        assert store.count("labels") == 100

    def test_cold_start_jammed_segment_labeled_interference(self):
        # no clean reference exists while scenario 1 (ON) runs; the offline
        # path waits for one instead of trusting the first level as clean
        sched = schedule_from_ids([1, 2], seed=4, duration_samples=300)
        store = TelemetryStore()
        synth_stream(sched, sink=lambda s: store.append("kpi", s))
        run_labeler(store)
        labels = [r.label for r in store.window("labels", 0, 599)]
        assert labels[:300] == [LABEL_INTERFERENCE] * 300
        assert labels[300:] == [LABEL_CLEAN] * 300

    def test_recurring_lower_noise_floor_labeled_clean(self):
        # scenario 6 is a clean link at a 15 dB lower SINR than scenario 2;
        # the stream keeps returning to it, so it is a noise floor, not a jam
        sched = schedule_from_ids([2, 6, 2, 6], seed=4, duration_samples=300)
        store = TelemetryStore()
        synth_stream(sched, sink=lambda s: store.append("kpi", s))
        run_labeler(store)
        labels = [r.label for r in store.window("labels", 0, 1199)]
        assert labels == [LABEL_CLEAN] * 1200

    def test_input_type_carries_no_truth_field(self):
        assert not hasattr(feature(0, 10.0), "truth_interference")
