"""Unsupervised labeling of KPI telemetry into clean/interference.

INTERFERENCE means SINR depressed below the clean reference. From SINR
alone a rise of the noise floor and a jammer look exactly alike, so the
labeler needs an assumption to tell them apart. The offline path makes
it explicit: jamming only lowers SINR, and a link spends most of its time
unjammed. The highest level, and any level the stream keeps returning to,
is then a noise floor (CLEAN); any other level that lies resolvably below
a noise floor is INTERFERENCE. A jammer too weak to depress SINR
resolvably is reported CLEAN.

The online path, `label_window`, must emit a label for each window as it
arrives. A non-overlapping window whose SNR range, plus a bound on rounding,
is under `SEPARATION_MIN_DB` is one class: no split can put two cluster mean
SNRs further apart than the range. Any other window is standardized on
(snr_db, bler) and split by 2-means: a window of up to `EXHAUSTIVE_KMEANS_MAX`
samples gets its optimal partition, every candidate scored in one array
operation, and a larger one Lloyd iterations from centroids seeded at its
min- and max-SNR samples. A split whose centroid SNR separation falls under
`SEPARATION_MIN_DB` is one class too. A one-class window is classed as a
whole against the median of the baseline, the last `MAX_RECENT` clean SNRs,
less `BASELINE_OFFSET_DB`; with no baseline yet, the window is trusted as clean.
A short median filter smooths per-sample labels near cluster boundaries.
The closed loop labels through this path.

The offline path, `label_stream`, has the whole flushed stream, so it
applies the assumption: it finds the SNR levels by change-point
detection, groups them, and decides only once it knows every level and
how often the stream returns to it. It thus avoids the online path's
cold-start trust and its single clean baseline, which takes every rise of
the noise floor for jamming. `run_labeler` applies it to a store's `kpi`
stream.

Ground truth cannot be read here by construction: `label_window` and
`run_labeler` consume FeatureSample views, stripped of truth at the store
boundary, and `label_stream` takes a float array of SNR values only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .scenarios import FeatureSample
from .store import LABEL_CLEAN, LABEL_INTERFERENCE, TelemetryStore

EXHAUSTIVE_KMEANS_MAX = 16  # tiny windows get the provably optimal 2-partition
MAD_NORMAL = 0.6744897501960817  # median of |N(0, 1)|
SEPARATION_MIN_DB = 4.0  # online: a narrower 2-means split is one class
BASELINE_OFFSET_DB = 6.0  # online: a one-class window this far below the baseline is jammed
MAX_RECENT = 600  # online: the baseline's clean SNRs, a few windows' memory to track regimes

_LABELS = np.array([LABEL_CLEAN, LABEL_INTERFERENCE], dtype=object)  # by 0/1 flag
_SNR = operator.attrgetter("snr_db")


class LabelerError(Exception):
    pass


@dataclass(frozen=True)
class LabelerConfig:
    window_size: int = 100
    smoothing_halfwidth: int = 2

    def validate(self) -> None:
        if self.window_size < 4:
            raise ValueError("window_size must be >= 4")
        if self.smoothing_halfwidth < 0:
            raise ValueError("smoothing_halfwidth must be >= 0")


def _quantile_half(values: np.ndarray) -> float:
    """`float(np.quantile(values, 0.5))` bit for bit: numpy's partition, then its `_lerp`."""
    v = (len(values) - 1) * 0.5
    lo, hi = (int(v), int(v) + 1) if len(values) > 1 else (-1, -1)
    part = np.partition(values, sorted({0, -1, lo, hi}))  # NaN sorts last
    a, b, t = float(part[lo]), float(part[hi]), v - lo
    return (math.nan if math.isnan(part[-1])
            else b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _median(values: np.ndarray) -> float:
    """`float(np.median(values))` bit for bit: numpy's partition, then its mean."""
    k, odd = divmod(len(values), 2)
    part = np.partition(values, [k, -1] if odd else [k - 1, k, -1])
    return (math.nan if math.isnan(part[-1])
            else float(0.0 + part[k] if odd else (0.0 + part[k - 1] + part[k]) / 2))


def _standardize(values: np.ndarray) -> np.ndarray:
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std > 0, std, 1.0)  # constant dimension keeps unit scale
    return (values - mean) / std


def _exhaustive_two_means(points: np.ndarray) -> np.ndarray:
    """Optimal 2-partition by enumeration; feasible for tiny windows only.

    The rows of `masks` are the partitions with point 0 in cluster 0, in
    `itertools.product` order. All are scored at once, as WCSS = sum |x|^2 -
    |S1|^2/n1 - |S0|^2/n0, and the first minimum wins.
    """
    n = len(points)
    if n < 2:
        return np.zeros(n, dtype=int)
    codes = np.arange(1, 2 ** (n - 1))[:, None]
    masks = np.zeros((len(codes), n), dtype=int)
    masks[:, 1:] = (codes >> np.arange(n - 2, -1, -1)) & 1
    n1 = masks.sum(axis=1)
    s1 = masks @ points
    s0 = points.sum(axis=0) - s1
    cost = (points ** 2).sum() - (s1 ** 2).sum(axis=1) / n1 - (s0 ** 2).sum(axis=1) / (n - n1)
    return masks[int(np.argmin(cost))]


def _lloyd_two_means(points: np.ndarray, snr_col: np.ndarray) -> np.ndarray:
    """Lloyd iterations from deterministic min/max-SNR centroid seeds. `np.bincount`
    sums each cluster's columns in row order, as `points[mask].mean(axis=0)` does."""
    x, y = points[:, 0], points[:, 1]
    (x0, y0), (x1, y1) = points[int(np.argmin(snr_col))], points[int(np.argmax(snr_col))]
    assign = np.zeros(len(points), dtype=int)
    for it in range(100):
        new_assign = ((x - x1) ** 2 + (y - y1) ** 2 < (x - x0) ** 2 + (y - y0) ** 2).astype(int)
        if it > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        size = np.bincount(assign, minlength=2)
        if not size.all():  # collapsed: keep seeds split
            break
        (x0, x1), (y0, y1) = np.bincount(assign, x, 2) / size, np.bincount(assign, y, 2) / size
    return assign


def two_means(points: np.ndarray, snr_col: np.ndarray) -> np.ndarray:
    """Deterministic 2-means assignment over standardized feature rows."""
    if len(points) <= EXHAUSTIVE_KMEANS_MAX:
        return _exhaustive_two_means(points)
    return _lloyd_two_means(points, snr_col)


def _median_filter_labels(labels: np.ndarray, halfwidth: int) -> np.ndarray:
    if halfwidth == 0 or len(labels) < 2:
        return labels
    n = len(labels)
    cs = np.concatenate(([0], np.cumsum(labels)))
    i = np.arange(n)
    lo, hi = np.maximum(0, i - halfwidth), np.minimum(n, i + halfwidth + 1)
    return ((cs[hi] - cs[lo]) * 2 > hi - lo).astype(labels.dtype)


def label_window(samples: list[FeatureSample], baseline: np.ndarray,
                 cfg: LabelerConfig) -> tuple[list, list[str], np.ndarray]:
    """Label one window; returns its seqs and their labels, as two columns,
    and the baseline after it. The baseline is the last `MAX_RECENT` clean
    SNRs, a float64 array that is empty at a cold start; it is never mutated,
    and a window that adds nothing to it returns it as it came."""
    cfg.validate()
    if not samples:
        raise LabelerError("cannot label an empty window")
    seqs = [s.seq for s in samples]
    if not all(map(operator.lt, seqs, seqs[1:])):
        raise LabelerError("window samples must be strictly ordered by seq")

    n = len(samples)
    snr = np.fromiter(map(_SNR, samples), float, n)
    lo, hi = float(snr.min()), float(snr.max())
    # no split's cluster means are further apart than hi - lo; rounding the two
    # means and their difference adds under 2 n eps max|snr|, here doubled
    bound = hi - lo + 4 * n * math.ulp(1.0) * max(-lo, hi)
    single_class = n < 4 or bound < SEPARATION_MIN_DB
    if not single_class:
        raw = np.column_stack([snr, np.array([s.bler for s in samples])])
        std = _standardize(raw)
        assign = two_means(std, std[:, 0])
        if 0 < assign.sum() < n:
            mean_snr = [snr[assign == c].mean() for c in (0, 1)]
            separation = abs(mean_snr[0] - mean_snr[1])
            single_class = separation < SEPARATION_MIN_DB
        else:  # degenerate window collapsed into one cluster
            single_class = True

    if single_class:  # one label for the whole window; a clean one feeds the baseline
        # a cold start has no clean reference yet, so it trusts the window
        if len(baseline) and _median(snr) - (_quantile_half(baseline) - BASELINE_OFFSET_DB) < 0:
            return seqs, [LABEL_INTERFERENCE] * n, baseline
        return seqs, [LABEL_CLEAN] * n, np.concatenate((baseline, snr))[-MAX_RECENT:]

    # interference cluster: lower mean SNR; BLER breaks exact SNR ties
    if mean_snr[0] != mean_snr[1]:
        jam_cluster = 0 if mean_snr[0] < mean_snr[1] else 1
    else:
        mean_bler = [raw[assign == c, 1].mean() for c in (0, 1)]
        jam_cluster = 0 if mean_bler[0] > mean_bler[1] else 1
    flags = (assign == jam_cluster).astype(int)
    flags = _median_filter_labels(flags, cfg.smoothing_halfwidth)
    clean = snr[flags == 0]
    if len(clean):
        baseline = np.concatenate((baseline, clean))[-MAX_RECENT:]
    return seqs, _LABELS[flags].tolist(), baseline


def _jitter_variance(snr: np.ndarray) -> float:
    """Per-sample SNR variance from first differences, robust to level changes.

    A difference inside a level is N(0, 2 sigma^2); the few that straddle a
    change point are outliers the median ignores. The floor keeps a noiseless
    stream from splitting on rounding error.
    """
    diffs = np.abs(np.diff(snr))
    sigma = float(np.median(diffs)) / (MAD_NORMAL * math.sqrt(2.0)) if len(diffs) else 0.0
    return max(sigma ** 2, np.finfo(float).eps * float(np.mean(snr ** 2)))


def _split_gains(cs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Squared-error reduction of splitting x[lo:hi] before each of x[lo+1:hi].

    `cs` is the cumulative sum of x with a leading zero.
    """
    n = hi - lo
    k = np.arange(1, n)
    left = cs[lo + 1:hi] - cs[lo]
    return n * (left - k * ((cs[hi] - cs[lo]) / n)) ** 2 / (k * (n - k))


def change_points(x: np.ndarray, penalty: float) -> list[int]:
    """Indices where the mean of `x` changes, each worth more than `penalty`.

    Binary segmentation proposes splits whose squared-error reduction exceeds
    the penalty. Each split is then moved to the best position between its
    neighbours (binary segmentation places a split against the whole interval,
    which biases it when the interval holds further changes), and the weakest
    split is dropped while its reduction there falls under the penalty.
    """
    cs = np.concatenate(([0.0], np.cumsum(x)))
    n = len(x)
    cps: list[int] = []
    todo = [(0, n)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        gains = _split_gains(cs, lo, hi)
        j = int(np.argmax(gains))
        if gains[j] > penalty:
            cps.append(lo + j + 1)
            todo += [(lo, lo + j + 1), (lo + j + 1, hi)]
    cps.sort()

    while cps:
        moved = True
        while moved:  # each move strictly lowers the squared error, so this ends
            moved = False
            worth = []
            for i in range(len(cps)):
                lo = cps[i - 1] if i else 0
                hi = cps[i + 1] if i + 1 < len(cps) else n
                gains = _split_gains(cs, lo, hi)
                j = int(np.argmax(gains))
                if gains[j] > gains[cps[i] - lo - 1]:
                    cps[i] = lo + j + 1
                    moved = True
                worth.append(float(gains[cps[i] - lo - 1]))
        weakest = int(np.argmin(worth))
        if worth[weakest] > penalty:
            break
        del cps[weakest]
    return cps


def _cluster_levels(levels: np.ndarray, weights: np.ndarray, penalty: float) -> np.ndarray:
    """Group segment levels that do not differ by more than `penalty`.

    Agglomerative in order of level: the neighbouring pair of groups whose
    merge costs the least weighted squared error merges while that cost is
    within the penalty, the same penalty that keeps a change point. Returns a
    group id per segment, ids ascending with level.
    """
    order = np.argsort(levels, kind="stable")
    groups = [[int(i)] for i in order]
    g_w = [float(weights[i]) for i in order]
    g_mean = [float(levels[i]) for i in order]
    while len(groups) > 1:
        costs = [g_w[i] * g_w[i + 1] / (g_w[i] + g_w[i + 1]) * (g_mean[i] - g_mean[i + 1]) ** 2
                 for i in range(len(groups) - 1)]
        i = int(np.argmin(costs))
        if costs[i] > penalty:
            break
        w = g_w[i] + g_w[i + 1]
        g_mean[i] = (g_w[i] * g_mean[i] + g_w[i + 1] * g_mean.pop(i + 1)) / w
        g_w[i] = w
        del g_w[i + 1]
        groups[i] += groups.pop(i + 1)
    group_of = np.empty(len(levels), dtype=int)
    for gid, members in enumerate(groups):
        group_of[members] = gid
    return group_of


def label_stream(snr: np.ndarray, window_size: int) -> np.ndarray:
    """Label a whole SNR series; returns per-sample jam flags.

    The series is cut at its mean change points, each of which must reduce
    the squared error by 3 ln n jitter variances (the modified BIC of Zhang &
    Siegmund 2007, less its segment-length term). Segment levels are then
    grouped as in `_cluster_levels`, each segment weighing at most
    `window_size` samples: the labeler resolves a level over one window, so a
    depression too small to show within a window is not reported, however
    long it lasts. A group is a noise floor if it is the highest level, or if
    the stream enters it in at least two separate visits and at least half as
    often as its most-entered group. Every other group lies resolvably below
    the highest floor and is jammed; a jammer the stream returns to as often
    as to a floor is taken for one.
    """
    n = len(snr)
    var = _jitter_variance(snr)
    penalty = 3.0 * math.log(n) * var
    bounds = np.array([0, *change_points(snr, penalty), n])
    counts = np.diff(bounds)
    levels = np.add.reduceat(snr, bounds[:-1]) / counts
    weights = np.minimum(counts, window_size).astype(float)
    group_of = _cluster_levels(levels, weights, penalty)

    n_groups = int(group_of.max()) + 1
    entered = np.bincount(group_of[np.r_[True, group_of[1:] != group_of[:-1]]],
                          minlength=n_groups)
    floor = (entered >= 2) & (2 * entered >= entered.max())
    floor[-1] = True  # the highest level
    return ~floor[np.repeat(group_of, counts)]


def run_labeler(store: TelemetryStore, cfg: LabelerConfig | None = None) -> None:
    """Label the whole `kpi` stream offline, with `label_stream` on its SNR.

    Assumes, as the module docstring sets out, that jamming only lowers SINR
    and that a link spends most of its time unjammed: the highest SNR level
    and any level the stream keeps returning to are noise floors, and other
    levels resolvably below a floor are jammed. Unlike the online
    `label_window`, which must emit a label for each window as it arrives,
    this path sees the flushed stream, so it defers every decision until it
    knows all the levels and how often the stream returns to each; a jammed
    first segment is thus not trusted as clean, and a second noise floor is
    not taken for jamming. A store that already holds labels raises
    `LabelerError` and is left unchanged.
    """
    cfg = cfg or LabelerConfig()
    cfg.validate()
    if store.count("labels"):
        raise LabelerError("store already holds labels; run the labeler on a fresh store")
    samples = [r.public() for r in store.window("kpi")]  # truth stripped here
    if samples:
        jammed = label_stream(np.array([s.snr_db for s in samples]), cfg.window_size)
        store.extend_columns("labels", [s.seq for s in samples],
                             _LABELS[jammed.astype(int)].tolist())
