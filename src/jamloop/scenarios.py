"""Uplink KPI synthesis under scripted clean/jammed interference scenarios.

Produces a deterministic stream of (SNR, MCS, BLER) samples with hidden
ground-truth interference flags. Interference and noise combine in the
linear power domain; noise amplitude converts to power via 20*log10.
Link adaptation runs on an EWMA of past SNR, so a jam onset causes a
transient MCS/SNR mismatch and a BLER spike before the loop re-converges.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np
import yaml

from .numbers import real, whole

OFF_INTERFERENCE_DB = -100.0
SAMPLE_PERIOD_MS = 100
DEFAULT_DURATION_SAMPLES = 300
# a synthesized SNR beyond this is refused: below it the squares, the sums of
# squares over a stream and the link adaptation's products stay finite
MAX_ABS_SNR_DB = 1e100


class ScheduleError(ValueError):
    """Raised when a schedule file is malformed or violates invariants."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One interference/noise scenario: event state, jammer power, noise level."""

    id: int
    event: str  # "ON" or "OFF"
    interference_db: float
    noise_amplitude: float
    duration_samples: int = DEFAULT_DURATION_SAMPLES

    def validate(self) -> None:
        if self.event not in ("ON", "OFF"):
            raise ScheduleError(f"scenario {self.id}: event must be ON or OFF, got {self.event!r}")
        if self.event == "OFF" and self.interference_db != OFF_INTERFERENCE_DB:
            raise ScheduleError(
                f"scenario {self.id}: OFF event requires interference_db == {OFF_INTERFERENCE_DB}"
            )
        if not self.noise_amplitude > 0:
            raise ScheduleError(f"scenario {self.id}: noise_amplitude must be > 0")
        if self.duration_samples <= 0:
            raise ScheduleError(f"scenario {self.id}: duration_samples must be positive")

    def in_catalog_domain(self) -> bool:
        """Whether (interference_db, noise_amplitude) is a catalog scenario's pair."""
        return any((s.interference_db, s.noise_amplitude)
                   == (self.interference_db, self.noise_amplitude)
                   for s in SCENARIO_CATALOG.values())


def _catalog() -> dict[int, ScenarioSpec]:
    rows = [
        (1, "ON", -8.0, 0.056), (2, "OFF", -100.0, 0.056),
        (3, "ON", -8.0, 0.15), (4, "OFF", -100.0, 0.15),
        (5, "ON", -8.0, 0.33), (6, "OFF", -100.0, 0.33),
        (7, "ON", -20.0, 0.056), (8, "OFF", -100.0, 0.056),
        (9, "ON", -20.0, 0.15), (10, "OFF", -100.0, 0.15),
        (11, "ON", -20.0, 0.33), (12, "OFF", -100.0, 0.33),
        (13, "ON", -40.0, 0.056), (14, "OFF", -100.0, 0.056),
        (15, "ON", -40.0, 0.15), (16, "OFF", -100.0, 0.15),
        (17, "ON", -40.0, 0.33), (18, "OFF", -100.0, 0.33),
    ]
    return {sid: ScenarioSpec(sid, ev, idb, amp) for sid, ev, idb, amp in rows}


SCENARIO_CATALOG: dict[int, ScenarioSpec] = _catalog()


@dataclass
class ScenarioSchedule:
    entries: list[ScenarioSpec]
    seed: int
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ScheduleError("schedule must contain at least one scenario entry")
        for spec in self.entries:
            spec.validate()


@dataclass(frozen=True)
class ChannelParams:
    signal_power_db: float = 0.0
    snr_jitter_sigma_db: float = 0.5
    ewma_alpha: float = 0.1
    la_margin_db: float = 1.0
    bler_slope_k: float = 1.0

    def validate(self) -> None:
        vals = (self.signal_power_db, self.snr_jitter_sigma_db, self.ewma_alpha,
                self.la_margin_db, self.bler_slope_k)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all channel parameters must be finite")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.snr_jitter_sigma_db < 0:
            raise ValueError("snr_jitter_sigma_db must be >= 0")


class FeatureSample(NamedTuple):
    """Detector/labeler view of a KPI sample: no ground truth field exists."""

    seq: int
    ts_ms: int
    snr_db: float
    mcs: int
    bler: float


# a FeatureSample from one tuple of its fields, without the generated __new__'s frame
_feature_sample = partial(tuple.__new__, FeatureSample)


class KpiSample(NamedTuple):
    """One uplink measurement. truth_interference is evaluation-only."""

    seq: int
    ts_ms: int
    snr_db: float
    mcs: int
    bler: float
    truth_interference: bool

    def public(self) -> FeatureSample:
        # FeatureSample's fields are this record's first five, in order
        return _feature_sample(self[:5])


# a KpiSample from one tuple of its fields, as `_feature_sample` builds a FeatureSample
_kpi_sample = partial(tuple.__new__, KpiSample)


def _catalog_spec(sid: int, duration_samples: int, where: str = "") -> ScenarioSpec:
    """Catalog scenario `sid` lasting `duration_samples`; `where` prefixes an error."""
    if isinstance(sid, bool) or sid not in SCENARIO_CATALOG:  # True would be id 1
        raise ScheduleError(f"{where}unknown catalog scenario id {sid}")
    return replace(SCENARIO_CATALOG[sid], duration_samples=duration_samples)


def schedule_from_ids(ids: list[int], seed: int,
                      duration_samples: int = DEFAULT_DURATION_SAMPLES) -> ScenarioSchedule:
    """Build a schedule straight from catalog scenario ids."""
    return ScenarioSchedule(entries=[_catalog_spec(sid, duration_samples) for sid in ids],
                            seed=seed)


def _number(item: dict, key: str, read: Callable, i: int, default=None):
    """`item[key]`, or `default` if it is absent, read by `numbers.whole` or
    `numbers.real`; a missing value without a default, or one `read`
    rejects, is a `ScheduleError` naming entry `i`."""
    value = item.get(key, default)
    if value is None:
        raise ScheduleError(f"entry {i}: missing field {key!r}")
    try:
        return read(value, key)
    except ValueError as exc:
        raise ScheduleError(f"entry {i}: {exc}") from exc


def load_schedule(path: str | Path, seed: int) -> ScenarioSchedule:
    """Load a schedule file (YAML document, see README for the schema).

    Entries may be bare catalog ids or full mappings. Values outside the
    catalog domain are accepted but recorded as warnings on the schedule.
    """
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ScheduleError(f"cannot parse schedule file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ScheduleError(f"schedule file {path} must be a mapping with an 'entries' list")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ScheduleError("schedule 'entries' must be a non-empty list")

    warnings: list[str] = []
    entries: list[ScenarioSpec] = []
    for i, item in enumerate(raw_entries):
        if isinstance(item, int):  # a bare id reads as {id: n}
            item = {"id": item}
        if not isinstance(item, dict):
            raise ScheduleError(f"entry {i}: expected id or mapping, got {type(item).__name__}")
        if "id" in item and set(item) <= {"id", "duration_samples"}:
            entries.append(_catalog_spec(
                _number(item, "id", whole, i),
                _number(item, "duration_samples", whole, i, DEFAULT_DURATION_SAMPLES),
                f"entry {i}: "))
            continue
        if "event" not in item:
            raise ScheduleError(f"entry {i}: missing field 'event'")
        event = item["event"]
        if isinstance(event, bool):  # YAML 1.1 reads bare ON/OFF as booleans
            event = "ON" if event else "OFF"
        spec = ScenarioSpec(
            id=_number(item, "id", whole, i, i + 1),
            event=str(event).upper(),
            interference_db=_number(item, "interference_db", real, i),
            noise_amplitude=_number(item, "noise_amplitude", real, i),
            duration_samples=_number(item, "duration_samples", whole, i,
                                     DEFAULT_DURATION_SAMPLES),
        )
        if not spec.in_catalog_domain():
            warnings.append(
                f"entry {i} (scenario {spec.id}): values outside the catalog domain "
                f"(int {spec.interference_db} dB, noise amp {spec.noise_amplitude})"
            )
        entries.append(spec)
    return ScenarioSchedule(entries=entries, seed=seed, warnings=warnings)


def sinr_db(spec: ScenarioSpec, params: ChannelParams) -> float:
    """Mean SINR before jitter: signal over noise-plus-interference power."""
    noise_db = 20.0 * math.log10(spec.noise_amplitude)
    total = 10.0 ** (noise_db / 10.0) + 10.0 ** (spec.interference_db / 10.0)
    return params.signal_power_db - 10.0 * math.log10(total)


def mcs_for_snr(snr_smoothed_db: float, params: ChannelParams) -> int:
    """Link adaptation: map margin-backed smoothed SNR onto MCS 0..28."""
    x = (snr_smoothed_db - params.la_margin_db + 6.0) * 28.0 / 36.0
    mcs = math.floor(x + 0.5)
    return 0 if mcs < 0 else 28 if mcs > 28 else mcs


def mcs_snr_threshold_db(mcs: int) -> float:
    """SNR at which the given MCS hits 50% BLER."""
    return -6.0 + 36.0 * mcs / 28.0


# each MCS's decoding threshold, so that `bler_for` makes no call for it
_MCS_THRESHOLD_DB = tuple(mcs_snr_threshold_db(mcs) for mcs in range(29))


def bler_for(snr_inst_db: float, mcs_used: int, params: ChannelParams) -> float:
    """Logistic BLER response around the MCS decoding threshold."""
    if not 0 <= mcs_used <= 28:
        raise ValueError(f"mcs must be in 0..28, got {mcs_used}")
    x = params.bler_slope_k * (snr_inst_db - _MCS_THRESHOLD_DB[mcs_used])
    # guard exp overflow for extreme arguments; limit is exact 0/1 anyway
    if x > 500:
        return 1.0 / (1.0 + math.exp(500))
    if x < -500:
        return 1.0 / (1.0 + math.exp(-500))
    return 1.0 / (1.0 + math.exp(x))


@dataclass
class Segment:
    scenario_id: int
    event: str
    start_seq: int
    end_seq: int  # inclusive


@dataclass
class StreamSummary:
    n_samples: int
    segments: list[Segment]
    digest: str


# samples whose digest text is hashed in one `sha256.update`
_DIGEST_CHUNK = 1024


def iter_stream(schedule: ScenarioSchedule,
                params: ChannelParams | None = None) -> Iterator[KpiSample]:
    """Generate the KPI stream sample by sample, deterministically from the seed.

    Each segment's jitter is drawn in one call. The generator yields the same
    normals as one draw per sample, and the sums are the same float64
    operations, so the stream is bit for bit what per-sample draws give.
    """
    params = params or ChannelParams()
    params.validate()
    rng = np.random.default_rng(schedule.seed)
    alpha, sigma = params.ewma_alpha, params.snr_jitter_sigma_db
    keep = 1.0 - alpha
    mcs_of, bler_of, sample, period = mcs_for_snr, bler_for, _kpi_sample, SAMPLE_PERIOD_MS
    seq = 0
    ewma: float | None = None
    for i, spec in enumerate(schedule.entries):
        where = f"entry {i} (scenario {spec.id})"
        try:
            mean = sinr_db(spec, params)
        except (OverflowError, ValueError):  # a power past the float range, or of 0
            raise ScheduleError(f"{where}: interference_db {spec.interference_db!r} and "
                                f"noise_amplitude {spec.noise_amplitude!r} give no finite "
                                f"SINR") from None
        truth = spec.event == "ON"
        with np.errstate(over="ignore"):  # an overflow is refused just below
            snrs = mean + sigma * rng.standard_normal(spec.duration_samples)
        # one test per segment, none per sample
        if not np.isfinite(snrs).all():
            raise ScheduleError(f"{where}: a synthesized SNR is not "
                                f"finite (snr_jitter_sigma_db {sigma!r})")
        if np.abs(snrs).max() > MAX_ABS_SNR_DB:
            raise ScheduleError(f"{where}: a synthesized SNR is beyond +-{MAX_ABS_SNR_DB:g} dB "
                                f"(snr_jitter_sigma_db {sigma!r})")
        snrs = snrs.tolist()
        if ewma is None and snrs:
            ewma = snrs[0]
        for snr_inst in snrs:
            mcs = mcs_of(ewma, params)
            yield sample((seq, seq * period, snr_inst, mcs, bler_of(snr_inst, mcs, params),
                          truth))
            ewma = alpha * snr_inst + keep * ewma
            seq += 1


def synth_stream(schedule: ScenarioSchedule, params: ChannelParams | None = None,
                 sink: Callable[[KpiSample], object] | None = None) -> StreamSummary:
    """Run the generator to completion, feeding each sample to the sink.

    A sink that formats the sample's floats may return the pair
    `(repr(snr_db), repr(bler))`, which the digest then reuses; any value
    that is not a tuple is ignored. An exception the sink raises ends the
    stream and propagates unchanged.
    """
    ends = itertools.accumulate(spec.duration_samples for spec in schedule.entries)
    segments = [Segment(spec.id, spec.event, end - spec.duration_samples, end - 1)
                for spec, end in zip(schedule.entries, ends)]
    h = hashlib.sha256()
    text: list[str] = []  # digest text not yet hashed, one string per sample
    add = text.append
    n = 0
    for n, sample in enumerate(iter_stream(schedule, params), start=1):
        reprs = sink(sample) if sink is not None else None
        seq, ts_ms, snr_db, mcs, bler, truth = sample
        snr_db, bler = reprs if type(reprs) is tuple else (repr(snr_db), repr(bler))
        add(f"{seq},{ts_ms},{snr_db},{mcs},{bler},{'01'[truth]};")  # truth as 0 or 1
        if len(text) == _DIGEST_CHUNK:
            h.update("".join(text).encode("ascii"))
            text.clear()
    h.update("".join(text).encode("ascii"))
    return StreamSummary(n_samples=n, segments=segments, digest=h.hexdigest())
