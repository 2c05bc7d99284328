import functools
import itertools
import math
import random
import re

import numpy as np
import pytest

from jamloop.labeler import (BASELINE_OFFSET_DB, EXHAUSTIVE_KMEANS_MAX, MAX_RECENT,
                             SEPARATION_MIN_DB, LabelerConfig, LabelerError, _exhaustive_two_means,
                             _median, _median_filter_labels, _quantile_half, _standardize,
                             label_window, run_labeler, two_means)
from jamloop.scenarios import (SCENARIO_CATALOG, FeatureSample, ScenarioSchedule,
                               schedule_from_ids, synth_stream)
from jamloop.store import LABEL_CLEAN, LABEL_INTERFERENCE, TelemetryStore


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
COLD = np.empty(0)  # the baseline before any clean window


class TestLabelWindow:
    def test_two_cluster_window_split_correctly(self):
        window = two_cluster_window()
        _, got, _ = label_window(window, COLD, CFG)
        # boundary slack: at most smoothing_halfwidth flips next to the split
        assert got[:50 - CFG.smoothing_halfwidth] == [LABEL_CLEAN] * (50 - CFG.smoothing_halfwidth)
        assert got[50 + CFG.smoothing_halfwidth:] == [LABEL_INTERFERENCE] * (50 - CFG.smoothing_halfwidth)

    def test_all_clean_window_via_fallback(self):
        rng = np.random.default_rng(2)
        window = [feature(i, 25.0 + 0.5 * rng.standard_normal()) for i in range(100)]
        _, labels, _ = label_window(window, np.full(200, 25.0), CFG)
        assert labels == [LABEL_CLEAN] * 100

    def test_all_jammed_window_via_fallback(self):
        rng = np.random.default_rng(2)
        window = [feature(i, 8.0 + 0.5 * rng.standard_normal(), bler=0.9)
                  for i in range(100)]
        _, labels, _ = label_window(window, np.full(200, 25.0), CFG)
        assert labels == [LABEL_INTERFERENCE] * 100

    def test_empty_window_rejected(self):
        with pytest.raises(LabelerError):
            label_window([], COLD, CFG)

    def test_constant_features_no_division_by_zero(self):
        window = [feature(i, 15.0, bler=0.2) for i in range(20)]
        seqs, labels, _ = label_window(window, COLD, CFG)
        assert seqs == list(range(20))
        assert len(labels) == 20

    def test_deterministic(self):
        window = two_cluster_window(seed=9)
        baseline = np.full(100, 25.0)
        a = label_window(window, baseline, CFG)
        b = label_window(window, baseline, CFG)
        assert a[:2] == b[:2]
        assert np.array_equal(a[2], b[2])

    def test_label_count_conservation(self):
        for n in (1, 3, 7, 50, 100):
            window = [feature(i, 20.0 + i * 0.01) for i in range(n)]
            seqs, labels, _ = label_window(window, COLD, CFG)
            assert seqs == list(range(n))
            assert len(labels) == n

    def test_baseline_updates_from_clean_samples(self):
        window = two_cluster_window(seed=1)
        baseline_in = np.empty(0)
        _, _, baseline_out = label_window(window, baseline_in, CFG)
        assert len(baseline_out) > 0
        assert _quantile_half(baseline_out) == pytest.approx(25.0, abs=0.5)
        assert len(baseline_in) == 0  # input state untouched

    @pytest.mark.parametrize("size", [0, 50, MAX_RECENT], ids=["cold", "short", "full"])
    @pytest.mark.parametrize("snrs", [
        [25.0, 25.5, 24.5] * 30, [8.0, 8.5, 7.5] * 30, [25.0] * 50 + [8.0] * 50],
        ids=["clean", "jammed", "straddling"])
    def test_baseline_is_read_only(self, size, snrs):
        window = built(snrs)
        baseline = np.full(size, 25.0)
        baseline.setflags(write=False)  # a write would raise
        _, labels, got = label_window(window, baseline, CFG)
        assert np.array_equal(baseline, np.full(size, 25.0))
        assert got.dtype == np.float64 and len(got) <= MAX_RECENT
        clean = [s.snr_db for s, label in zip(window, labels) if label == LABEL_CLEAN]
        if clean:
            assert got.tolist() == ([25.0] * size + clean)[-MAX_RECENT:]
        else:  # a jammed window returns the baseline as it came
            assert got is baseline

    def test_high_gap_agreement_outside_transition(self):
        # 10 dB cluster gap, sigma 0.5: perfect labels outside +-halfwidth
        rng = np.random.default_rng(33)
        window = []
        for i in range(60):
            window.append(feature(i, 22.0 + 0.5 * rng.standard_normal(), bler=0.1))
        for i in range(60, 100):
            window.append(feature(i, 12.0 + 0.5 * rng.standard_normal(), bler=0.8))
        _, labels, _ = label_window(window, COLD, CFG)
        hw = CFG.smoothing_halfwidth
        assert labels[:60 - hw] == [LABEL_CLEAN] * (60 - hw)
        assert labels[60 + hw:] == [LABEL_INTERFERENCE] * (40 - hw)


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


def reference_two_means(points):
    """The per-partition loop the array enumeration replaced, ties included."""
    n = len(points)
    best_assign = np.zeros(n, dtype=int)
    best = np.inf
    for bits in itertools.product((0, 1), repeat=n - 1):
        assign = np.array((0,) + bits)
        if assign.max() == 0:  # need both clusters non-empty
            continue
        cost = wcss_of(points, assign)
        if cost < best:
            best = cost
            best_assign = assign
    return best_assign


def reference_median_filter(labels, halfwidth):
    """The per-sample loop the cumulative-sum filter replaced."""
    if halfwidth == 0 or len(labels) < 2:
        return labels
    out = labels.copy()
    n = len(labels)
    for i in range(n):
        window = labels[max(0, i - halfwidth):min(n, i + halfwidth + 1)]
        out[i] = 1 if window.sum() * 2 > len(window) else 0
    return out


def catalog_slices(seed, sizes):
    """Standardized (snr_db, bler) slices of the catalog stream, one per size."""
    sched = schedule_from_ids(range(1, len(SCENARIO_CATALOG) + 1), seed=seed,
                              duration_samples=20)
    rows = []
    synth_stream(sched, sink=lambda s: rows.append((s.snr_db, s.bler)))
    raw = np.array(rows)
    starts = np.cumsum([0, *sizes[:-1]]) * 2  # spread the slices over the stream
    return [_standardize(raw[a:a + n]) for a, n in zip(starts, sizes)]


class TestMatchesReplacedLoops:
    def test_random_windows(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            pts = rng.normal(0, 1, size=(int(rng.integers(1, 13)), 2))
            assert np.array_equal(two_means(pts, pts[:, 0]), reference_two_means(pts))

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_catalog_slices(self, seed):
        for pts in catalog_slices(seed, list(range(4, 13)) * 2):
            assert np.array_equal(two_means(pts, pts[:, 0]), reference_two_means(pts))

    @pytest.mark.parametrize("n", [13, 16])
    def test_largest_exhaustive_windows(self, n):
        pts = np.random.default_rng(n).normal(0, 1, size=(n, 2))
        assert np.array_equal(two_means(pts, pts[:, 0]), reference_two_means(pts))

    def test_exact_ties_keep_the_first_partition(self):
        # the corners of a square split as well by x as by y, and a constant
        # window splits every way at zero cost; integer sums tie exactly
        square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        windows = [square[list(p)] for p in itertools.permutations(range(4))]
        windows += [np.vstack([square, 2 * square]), np.zeros((5, 2))]
        for pts in windows:
            assert np.array_equal(two_means(pts, pts[:, 0]), reference_two_means(pts))

    def test_median_filter(self):
        rng = np.random.default_rng(6)
        for n in range(121):
            labels = rng.integers(0, 2, n)
            for hw in range(6):
                assert np.array_equal(_median_filter_labels(labels, hw),
                                      reference_median_filter(labels, hw))


def reference_lloyd_two_means(points, snr_col):
    """`_lloyd_two_means` before its distances went by column and its centroids by bincount."""
    c0 = points[int(np.argmin(snr_col))].copy()
    c1 = points[int(np.argmax(snr_col))].copy()
    assign = np.zeros(len(points), dtype=int)
    for it in range(100):
        d0 = ((points - c0) ** 2).sum(axis=1)
        d1 = ((points - c1) ** 2).sum(axis=1)
        new_assign = (d1 < d0).astype(int)
        if it > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        if assign.min() == assign.max():
            break
        c0 = points[assign == 0].mean(axis=0)
        c1 = points[assign == 1].mean(axis=0)
    return assign


def reference_label_window(samples, baseline, cfg):
    """`label_window` before the range rule: every window of 4 or more samples is
    standardized and split, with `np.median` for a one-class window and
    `np.quantile` for the baseline, which is a list of the last clean SNRs."""
    cfg.validate()
    if not samples:
        raise LabelerError("cannot label an empty window")
    seqs = [s.seq for s in samples]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        raise LabelerError("window samples must be strictly ordered by seq")
    snr = np.array([s.snr_db for s in samples])
    raw = np.column_stack([snr, np.array([s.bler for s in samples])])
    std = _standardize(raw)
    single_class = len(samples) < 4
    if not single_class:
        assign = (_exhaustive_two_means(std) if len(std) <= EXHAUSTIVE_KMEANS_MAX
                  else reference_lloyd_two_means(std, std[:, 0]))
        if 0 < assign.sum() < len(assign):
            mean_snr = [snr[assign == c].mean() for c in (0, 1)]
            single_class = abs(mean_snr[0] - mean_snr[1]) < SEPARATION_MIN_DB
        else:
            single_class = True
    if single_class:
        window_median = float(np.median(snr))
        is_interference = (len(baseline) > 0 and window_median
                           - (float(np.quantile(baseline, 0.5)) - BASELINE_OFFSET_DB) < 0)
        flags = np.full(len(samples), 1 if is_interference else 0)
    else:
        if mean_snr[0] != mean_snr[1]:
            jam_cluster = 0 if mean_snr[0] < mean_snr[1] else 1
        else:
            mean_bler = [raw[assign == c, 1].mean() for c in (0, 1)]
            jam_cluster = 0 if mean_bler[0] > mean_bler[1] else 1
        flags = _median_filter_labels((assign == jam_cluster).astype(int),
                                      cfg.smoothing_halfwidth)
    labels = [LABEL_INTERFERENCE if f else LABEL_CLEAN for f in flags.tolist()]
    return seqs, labels, (baseline + snr[flags == 0].tolist())[-MAX_RECENT:]


def hexes(baseline, median):
    """Every baseline value's bits, and its median's by `median`."""
    return ([float(x).hex() for x in baseline],
            float(median(baseline)).hex() if len(baseline) else None)


def assert_labels_as_reference(windows, cfg=CFG):
    """Run both labelers over `windows` in turn, each carrying its own baseline, and
    require the same seqs and labels, the same baseline bits and baseline median bits,
    or the same exception."""
    ours, ref = COLD, []
    for i, window in enumerate(windows):
        try:
            want = reference_label_window(window, ref, cfg)
        except Exception as exc:  # noqa: BLE001 - the reference's exception is the spec
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                label_window(window, ours, cfg)
            continue
        got = label_window(window, ours, cfg)
        assert got[0] == want[0], f"window {i}"
        assert got[1] == want[1], f"window {i}"
        assert (hexes(got[2], _quantile_half)
                == hexes(want[2], functools.partial(np.quantile, q=0.5))), f"window {i}"
        ours, ref = got[2], want[2]


def duty_cycled_schedule(period, seed):
    """600 clean samples of scenario 8; 3,000 of scenario 7 (jammed, 6.2 dB below)
    and 8 alternating every `period` samples; then 1,200 of scenarios 2 and 1
    alternating every 300."""
    parts = [schedule_from_ids([8], seed, 600),
             schedule_from_ids([7, 8] * (1500 // period), seed, period),
             schedule_from_ids([2, 1] * 2, seed, 300)]
    return ScenarioSchedule([e for part in parts for e in part.entries], seed)


@functools.cache
def pin_streams(seed):
    """The feature samples of each stream the reference pin covers."""
    catalog = list(range(1, len(SCENARIO_CATALOG) + 1))
    shuffled = catalog * 2
    random.Random(seed).shuffle(shuffled)
    schedules = [schedule_from_ids([2, 3] * 2, seed, 1050),  # steady-like
                 schedule_from_ids(catalog * 2, seed, 100),
                 schedule_from_ids(catalog * 2, seed, 300),
                 schedule_from_ids(shuffled, seed, 100),
                 duty_cycled_schedule(20, seed)]
    streams = []
    for schedule in schedules:
        samples = []
        synth_stream(schedule, sink=lambda s: samples.append(s.public()))
        streams.append(samples)
    return streams


def cut(samples, size, limit):
    """The stream's `size`-sample windows; past `limit` of them, every window whose
    SNR spans 2 dB or more and an even spread of the others, in stream order."""
    windows = [samples[i:i + size] for i in range(0, len(samples), size)]
    if len(windows) <= limit:
        return windows
    wide = [i for i, w in enumerate(windows)
            if max(s.snr_db for s in w) - min(s.snr_db for s in w) >= 2.0]
    keep = set(wide[:limit // 2])
    keep |= set(range(0, len(windows), max(1, len(windows) // (limit - len(keep)))))
    return [windows[i] for i in sorted(keep)]


def built(snrs, blers=None, seq0=0):
    blers = blers or [0.1] * len(snrs)
    return [feature(seq0 + i, snr, bler) for i, (snr, bler) in enumerate(zip(snrs, blers))]


def ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


class TestMatchesReferenceLabelWindow:
    """The range rule, the bincount Lloyd and the partition median and quantile
    give the earlier `label_window`'s labels and baseline bits, window by window."""

    # windows per stream; the exhaustive solver takes about 10 ms for 16 samples
    LIMITS = {4: 60, 16: 8, 17: 60, 37: 60, 100: 110}

    @pytest.mark.parametrize("size", sorted(LIMITS))
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_streams(self, seed, size, monkeypatch):
        splits = []

        def counted(points, snr_col):
            splits.append(len(points))
            return two_means(points, snr_col)

        monkeypatch.setattr("jamloop.labeler.two_means", counted)
        windows = 0
        for samples in pin_streams(seed):
            cut_windows = cut(samples, size, self.LIMITS[size])
            assert_labels_as_reference(cut_windows, LabelerConfig(window_size=size))
            windows += len(cut_windows)
        # both paths ran: windows the range rule decided, and windows it split
        assert 0 < len(splits) < windows

    @pytest.mark.parametrize("lo,hi,n_lo,n_hi", [
        (14.84, 18.839999999999996, 57, 39), (36.4, 40.39999999999999, 13, 30),
        (-10.79, -6.79, 38, 8), (3.49, 7.489999999999999, 34, 56)])
    def test_rounded_means_reach_the_separation(self, lo, hi, n_lo, n_hi):
        # the range is under 4 dB, but the computed cluster means lie 4 dB or
        # more apart, so the window splits: the range alone cannot decide it
        assert hi - lo < SEPARATION_MIN_DB
        assert np.mean([hi] * n_hi) - np.mean([lo] * n_lo) >= SEPARATION_MIN_DB
        window = built([lo] * n_lo + [hi] * n_hi)
        _, labels, _ = label_window(window, COLD, CFG)
        assert labels[0] != labels[-1]
        assert_labels_as_reference([window])

    def test_range_at_the_separation(self):
        for k in range(-2, 3):
            for n in (4, 17, 100):
                lo = 10.0
                hi = ulps(lo + SEPARATION_MIN_DB, k)
                for snrs in ([lo] * (n // 2) + [hi] * (n - n // 2),
                             [hi] * (n - 1) + [lo],
                             [lo + (hi - lo) * i / (n - 1) for i in range(n)]):
                    assert_labels_as_reference([built(snrs)])

    def test_baseline_between_two_levels(self):
        # the baseline's two middle values are 0.43 and 2.04, where numpy's
        # interpolation, 2.04 - (2.04 - 0.43) * 0.5, and (0.43 + 2.04) / 2 round apart
        assert (0.43 + 2.04) / 2 != 2.04 - (2.04 - 0.43) * 0.5
        assert_labels_as_reference([built([0.43] * 50), built([2.04] * 50, seq0=50),
                                    built([1.5] * 20, seq0=100)])

    def test_range_near_the_separation_after_a_baseline(self):
        baseline_window = built([20.0] * 100)
        for k in range(-2, 3):
            for lo in (0.0, 15.0, -30.0, 1e3):
                hi = ulps(lo + SEPARATION_MIN_DB, k)
                snrs = [lo, hi] * 50
                assert_labels_as_reference([baseline_window, built(snrs, seq0=100)])

    @pytest.mark.parametrize("snrs", [
        [5.0] * 7, [0.0] * 8, [-0.0] * 8, [-0.0, 0.0] * 4, [0.0, -0.0, -0.0] * 3,
        [-0.0] * 9, [1e15, 1e15 + 4.0, 1e15 + 2.0, 1e15 + 8.0] * 5,
        [1e15, 1e15 + 2.0, 1e15 + 1.0, 1e15 + 3.0] * 5,
        [1e15] * 20, [1e300, -1e300, 1e300, 0.0] * 5, [1e300] * 16, [-1e300] * 17,
        [1.0, 2.0, math.nan, 3.0] * 5, [math.nan] * 6, [10.0, math.inf, 12.0, 11.0] * 5,
        [-math.inf, 10.0, 12.0, 11.0] * 5, [math.inf, -math.inf] * 3, [math.inf] * 5,
    ], ids=lambda snrs: repr(snrs[:4]))
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_built_windows(self, snrs, warm):
        windows = [built(snrs, seq0=100)]
        if warm:
            windows.insert(0, built([20.0, 20.5, 19.5] * 30))
        with np.errstate(all="ignore"):
            assert_labels_as_reference(windows + [built([21.0] * 40, seq0=200)])

    def test_random_windows_around_the_separation(self):
        rng = np.random.default_rng(1)
        for n in (4, 5, 16, 17, 40):
            for spread in (0.5, 3.9, 4.0, 4.1, 9.0):
                snrs = (10.0 + spread * rng.random(n)).tolist()
                for blers in ([0.1] * n, rng.random(n).tolist(), [-0.0] * n):
                    assert_labels_as_reference([built(snrs, blers)])

    def test_unordered_and_empty_windows_raise_as_reference(self):
        assert_labels_as_reference([built([1.0, 2.0]), [feature(5, 1.0), feature(4, 2.0)]])
        assert_labels_as_reference([[]])


def statistic_inputs():
    rng = np.random.default_rng(2)
    for n in range(1, 70):
        yield rng.normal(0, 5, n).tolist()
        yield rng.integers(-2, 3, n).astype(float).tolist()  # ties
        yield [-0.0] * n
        yield ([0.0, -0.0] * n)[:n]
        yield (rng.normal(0, 5, n).tolist() + [math.nan, math.inf, -math.inf])[-n:]
        yield [1e308] * n


class TestMatchesNumpyStatistics:
    def test_quantile_half(self):
        with np.errstate(all="ignore"):
            for values in statistic_inputs():
                assert _quantile_half(values).hex() == float(np.quantile(values, 0.5)).hex()

    def test_median(self):
        with np.errstate(all="ignore"):
            for values in statistic_inputs():
                values = np.array(values)
                assert _median(values).hex() == float(np.median(values)).hex()


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
