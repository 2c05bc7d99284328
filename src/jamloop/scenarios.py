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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import yaml

OFF_INTERFERENCE_DB = -100.0
SAMPLE_PERIOD_MS = 100
DEFAULT_DURATION_SAMPLES = 300

TABLE1_INTERFERENCE_DB = (-8.0, -20.0, -40.0, OFF_INTERFERENCE_DB)
TABLE1_NOISE_AMPLITUDES = (0.056, 0.15, 0.33)


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
        return (
            self.interference_db in TABLE1_INTERFERENCE_DB
            and self.noise_amplitude in TABLE1_NOISE_AMPLITUDES
        )


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


@dataclass(frozen=True)
class KpiSample:
    """One uplink measurement. truth_interference is evaluation-only."""

    seq: int
    ts_ms: int
    snr_db: float
    mcs: int
    bler: float
    truth_interference: bool

    def public(self) -> "FeatureSample":
        return FeatureSample(self.seq, self.ts_ms, self.snr_db, self.mcs, self.bler)


@dataclass(frozen=True)
class FeatureSample:
    """Detector/labeler view of a KPI sample: no ground truth field exists."""

    seq: int
    ts_ms: int
    snr_db: float
    mcs: int
    bler: float


def schedule_from_ids(ids: list[int], seed: int,
                      duration_samples: int = DEFAULT_DURATION_SAMPLES) -> ScenarioSchedule:
    """Build a schedule straight from catalog scenario ids."""
    entries = []
    for sid in ids:
        if sid not in SCENARIO_CATALOG:
            raise ScheduleError(f"unknown catalog scenario id {sid}")
        base = SCENARIO_CATALOG[sid]
        entries.append(ScenarioSpec(base.id, base.event, base.interference_db,
                                    base.noise_amplitude, duration_samples))
    return ScenarioSchedule(entries=entries, seed=seed)


def _number(item: dict, key: str, kind: type, i: int, default=None):
    """`item[key]`, or `default` if it is absent, converted by `kind`.

    A missing value without a default, one that does not convert, or a
    fractional value of an int field is a `ScheduleError` naming entry `i`.
    """
    value = item.get(key, default)
    if value is None:
        raise ScheduleError(f"entry {i}: missing field {key!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScheduleError(f"entry {i}: {key} must be a whole number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ScheduleError(f"entry {i}: {key} must be a number, got {value!r}") from exc


def load_schedule(path: str | Path, seed: int) -> ScenarioSchedule:
    """Load a schedule file (YAML document, see README for the schema).

    Entries may be bare catalog ids or full mappings. Values outside the
    catalog domain are accepted but recorded as warnings on the schedule.
    """
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ScheduleError(f"cannot parse schedule file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ScheduleError(f"schedule file {path} must be a mapping with an 'entries' list")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ScheduleError("schedule 'entries' must be a non-empty list")

    warnings: list[str] = []
    entries: list[ScenarioSpec] = []
    for i, item in enumerate(raw_entries):
        if isinstance(item, int):
            if item not in SCENARIO_CATALOG:
                raise ScheduleError(f"entry {i}: unknown catalog scenario id {item}")
            entries.append(SCENARIO_CATALOG[item])
            continue
        if not isinstance(item, dict):
            raise ScheduleError(f"entry {i}: expected id or mapping, got {type(item).__name__}")
        if "id" in item and set(item) <= {"id", "duration_samples"}:
            sid = item["id"]
            if sid not in SCENARIO_CATALOG:
                raise ScheduleError(f"entry {i}: unknown catalog scenario id {sid}")
            base = SCENARIO_CATALOG[sid]
            entries.append(ScenarioSpec(
                base.id, base.event, base.interference_db, base.noise_amplitude,
                _number(item, "duration_samples", int, i, DEFAULT_DURATION_SAMPLES)))
            continue
        if "event" not in item:
            raise ScheduleError(f"entry {i}: missing field 'event'")
        event = item["event"]
        if isinstance(event, bool):  # YAML 1.1 reads bare ON/OFF as booleans
            event = "ON" if event else "OFF"
        spec = ScenarioSpec(
            id=_number(item, "id", int, i, i + 1),
            event=str(event).upper(),
            interference_db=_number(item, "interference_db", float, i),
            noise_amplitude=_number(item, "noise_amplitude", float, i),
            duration_samples=_number(item, "duration_samples", int, i,
                                     DEFAULT_DURATION_SAMPLES),
        )
        spec.validate()
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
    return int(min(28, max(0, math.floor(x + 0.5))))


def mcs_snr_threshold_db(mcs: int) -> float:
    """SNR at which the given MCS hits 50% BLER."""
    return -6.0 + 36.0 * mcs / 28.0


def bler_for(snr_inst_db: float, mcs_used: int, params: ChannelParams) -> float:
    """Logistic BLER response around the MCS decoding threshold."""
    if not 0 <= mcs_used <= 28:
        raise ValueError(f"mcs must be in 0..28, got {mcs_used}")
    x = params.bler_slope_k * (snr_inst_db - mcs_snr_threshold_db(mcs_used))
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
    aborted: bool = False
    abort_reason: str | None = None


def _sample_digest_update(h, s: KpiSample) -> None:
    h.update(f"{s.seq},{s.ts_ms},{s.snr_db!r},{s.mcs},{s.bler!r},{int(s.truth_interference)};"
             .encode("ascii"))


def iter_stream(schedule: ScenarioSchedule,
                params: ChannelParams | None = None) -> Iterator[KpiSample]:
    """Generate the KPI stream sample by sample, deterministically from the seed."""
    params = params or ChannelParams()
    params.validate()
    rng = np.random.default_rng(schedule.seed)
    seq = 0
    ewma: float | None = None
    for spec in schedule.entries:
        mean = sinr_db(spec, params)
        truth = spec.event == "ON"
        for _ in range(spec.duration_samples):
            snr_inst = mean + params.snr_jitter_sigma_db * rng.standard_normal()
            if ewma is None:
                ewma = snr_inst
            mcs = mcs_for_snr(ewma, params)
            bler = bler_for(snr_inst, mcs, params)
            yield KpiSample(seq=seq, ts_ms=seq * SAMPLE_PERIOD_MS, snr_db=float(snr_inst),
                            mcs=mcs, bler=float(bler), truth_interference=truth)
            ewma = params.ewma_alpha * snr_inst + (1.0 - params.ewma_alpha) * ewma
            seq += 1


def synth_stream(schedule: ScenarioSchedule, params: ChannelParams | None = None,
                 sink: Callable[[KpiSample], None] | None = None) -> StreamSummary:
    """Run the generator to completion, feeding each sample to the sink.

    A sink failure aborts the stream; the summary then covers the emitted prefix.
    """
    ends = itertools.accumulate(spec.duration_samples for spec in schedule.entries)
    segments = [Segment(spec.id, spec.event, end - spec.duration_samples, end - 1)
                for spec, end in zip(schedule.entries, ends)]
    h = hashlib.sha256()
    n = 0
    try:
        for sample in iter_stream(schedule, params):
            if sink is not None:
                sink(sample)
            _sample_digest_update(h, sample)
            n += 1
    except Exception as exc:  # sink failure: report partial progress, then re-raise
        summary = StreamSummary(n_samples=n,
                                segments=[seg for seg in segments if seg.end_seq < n],
                                digest=h.hexdigest(),
                                aborted=True, abort_reason=str(exc))
        exc.partial_summary = summary  # type: ignore[attr-defined]
        raise
    return StreamSummary(n_samples=n, segments=segments, digest=h.hexdigest())
