import hashlib
import math

import numpy as np
import pytest

from jamloop.scenarios import (ChannelParams, SCENARIO_CATALOG, ScenarioSchedule,
                               ScenarioSpec, ScheduleError, bler_for, iter_stream,
                               load_schedule, mcs_for_snr, mcs_snr_threshold_db,
                               schedule_from_ids, sinr_db, synth_stream)

P = ChannelParams()


# independent oracle: combine powers by hand, no shared code path
def oracle_sinr(signal_db, interference_db, noise_amplitude):
    noise_power = noise_amplitude ** 2
    interference_power = 10.0 ** (interference_db / 10.0)
    return signal_db - 10.0 * math.log10(noise_power + interference_power)


class TestSinr:
    def test_scenario1_on_minus8(self):
        expected = oracle_sinr(0.0, -8.0, 0.056)  # ~7.915 dB
        assert sinr_db(SCENARIO_CATALOG[1], P) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(7.92, abs=0.01)

    def test_off_reduces_to_noise_floor(self):
        spec = SCENARIO_CATALOG[6]  # OFF, amp 0.33
        closed_form = -20.0 * math.log10(0.33)
        assert sinr_db(spec, P) == pytest.approx(closed_form, abs=0.01)
        assert closed_form == pytest.approx(9.63, abs=0.01)

    def test_unit_noise_amplitude_is_zero_db(self):
        spec = ScenarioSpec(99, "OFF", -100.0, 1.0)
        assert sinr_db(spec, P) == pytest.approx(0.0, abs=0.01)

    def test_strictly_decreasing_in_interference_and_noise(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            idb = rng.uniform(-60, 0)
            amp = rng.uniform(0.01, 1.0)
            base = sinr_db(ScenarioSpec(1, "ON", idb, amp), P)
            assert sinr_db(ScenarioSpec(1, "ON", idb + 1.0, amp), P) < base
            assert sinr_db(ScenarioSpec(1, "ON", idb, amp * 1.1), P) < base


class TestMcsForSnr:
    def test_upper_clamp(self):
        assert mcs_for_snr(36.0 + P.la_margin_db, P) == 28

    def test_lower_clamp(self):
        assert mcs_for_snr(-20.0, P) == 0

    def test_mapping_example(self):
        # round((7.92 - 1 + 6) * 28 / 36) computed by hand = round(10.048) = 10
        assert mcs_for_snr(7.92, P) == 10

    def test_monotone(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(-30, 50, 500))
        ms = [mcs_for_snr(float(x), P) for x in xs]
        assert all(a <= b for a, b in zip(ms, ms[1:]))


class TestBlerFor:
    def test_midpoint(self):
        for m in (0, 10, 28):
            assert bler_for(mcs_snr_threshold_db(m), m, P) == pytest.approx(0.5)

    def test_ten_db_above(self):
        expected = 1.0 / (1.0 + math.exp(10.0))  # ~4.54e-5
        assert bler_for(mcs_snr_threshold_db(7) + 10.0, 7, P) == pytest.approx(
            expected, rel=1e-12)

    def test_ten_db_below_symmetry(self):
        expected = 1.0 / (1.0 + math.exp(-10.0))  # ~0.99995
        assert bler_for(mcs_snr_threshold_db(7) - 10.0, 7, P) == pytest.approx(
            expected, rel=1e-12)

    def test_monotone_decreasing_and_bounded(self):
        vals = [bler_for(x, 14, P) for x in np.linspace(-40, 60, 300)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # strictly interior over the realistic operating range
        interior = [bler_for(x, 14, P) for x in np.linspace(-10, 35, 100)]
        assert all(0.0 < v < 1.0 for v in interior)


class TestSchedule:
    def test_load_catalog_ids(self, tmp_path):
        f = tmp_path / "sched.yaml"
        f.write_text("entries: [%s]\n" % ", ".join(str(i) for i in range(1, 19)))
        sched = load_schedule(f, seed=1)
        assert len(sched.entries) == 18
        assert [e.id for e in sched.entries] == list(range(1, 19))
        assert all(e.duration_samples == 300 for e in sched.entries)
        assert sched.warnings == []

    def test_empty_entries_rejected(self, tmp_path):
        f = tmp_path / "sched.yaml"
        f.write_text("entries: []\n")
        with pytest.raises(ScheduleError):
            load_schedule(f, seed=1)

    def test_custom_entry_flagged_not_rejected(self, tmp_path):
        f = tmp_path / "sched.yaml"
        f.write_text(
            "entries:\n"
            "  - {event: ON, interference_db: -30, noise_amplitude: 0.2}\n")
        sched = load_schedule(f, seed=1)
        assert len(sched.entries) == 1
        assert len(sched.warnings) == 1
        assert "-30" in sched.warnings[0] or "30" in sched.warnings[0]

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "sched.yaml"
        f.write_text("entries: [1, {event: ON]\n")
        with pytest.raises(ScheduleError):
            load_schedule(f, seed=1)

    def test_off_with_nonsentinel_interference_rejected(self):
        with pytest.raises(ScheduleError):
            ScenarioSchedule([ScenarioSpec(1, "OFF", -8.0, 0.1)], seed=0)

    @pytest.mark.parametrize("ids", [[True], [2, False], [0], [19]])
    def test_from_ids_rejects_non_catalog_id(self, ids):
        with pytest.raises(ScheduleError, match="unknown catalog scenario id"):
            schedule_from_ids(ids, seed=1)

    def test_bare_and_mapped_ids_give_the_same_specs(self, tmp_path):
        f = tmp_path / "sched.yaml"
        f.write_text("entries: [3, {id: 3}, {id: 3, duration_samples: 300}]\n")
        entries = load_schedule(f, seed=1).entries
        assert entries == [SCENARIO_CATALOG[3]] * 3
        assert entries == schedule_from_ids([3] * 3, seed=1).entries

    @pytest.mark.parametrize("duration", [1, 300, 10_000])
    def test_catalog_specs_in_catalog_domain(self, duration):
        for spec in schedule_from_ids(list(SCENARIO_CATALOG), 1, duration).entries:
            assert spec.in_catalog_domain()
            assert ScenarioSpec(99, spec.event, spec.interference_db, spec.noise_amplitude,
                                duration).in_catalog_domain()

    @pytest.mark.parametrize("interference_db,noise_amplitude", [
        (-8.0, 0.1), (-30.0, 0.15), (-100.0, 0.2), (-100.0001, 0.056), (-8.0, 0.0561)])
    def test_off_catalog_pair_outside_domain(self, interference_db, noise_amplitude):
        spec = ScenarioSpec(1, "ON", interference_db, noise_amplitude)
        assert not spec.in_catalog_domain()


def reference_stream(schedule, params):
    """The generator with one scalar jitter draw per sample, as fields per sample.

    `iter_stream` draws a segment's jitter in one call; this copy pins that it
    yields the same stream, bit for bit.
    """
    rng = np.random.default_rng(schedule.seed)
    seq = 0
    ewma = None
    for spec in schedule.entries:
        mean = sinr_db(spec, params)
        truth = spec.event == "ON"
        for _ in range(spec.duration_samples):
            snr_inst = mean + params.snr_jitter_sigma_db * rng.standard_normal()
            if ewma is None:
                ewma = snr_inst
            mcs = mcs_for_snr(ewma, params)
            bler = bler_for(snr_inst, mcs, params)
            yield (seq, seq * 100, float(snr_inst).hex(), mcs, float(bler).hex(), truth)
            ewma = params.ewma_alpha * snr_inst + (1.0 - params.ewma_alpha) * ewma
            seq += 1


def short_entry_schedule(seed):
    """Catalog and custom entries of 1 to 3 samples, then one long segment."""
    specs = [ScenarioSpec(sid, c.event, c.interference_db, c.noise_amplitude, 1 + sid % 3)
             for sid, c in SCENARIO_CATALOG.items()]
    specs += [ScenarioSpec(40, "ON", -3.0, 0.9, 1), ScenarioSpec(41, "OFF", -100.0, 0.01, 1),
              ScenarioSpec(42, "ON", -60.0, 0.2, 500)]
    return ScenarioSchedule(specs, seed=seed)


class TestSynthStream:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    # at +600 dB a stream sits at MCS 28 past the high BLER clamp (x > 500),
    # at -600 dB at MCS 0 past the low one (x < -500)
    @pytest.mark.parametrize("params", [P, ChannelParams(signal_power_db=2.5,
                                                         snr_jitter_sigma_db=1.7,
                                                         ewma_alpha=0.3),
                                        ChannelParams(signal_power_db=600.0),
                                        ChannelParams(signal_power_db=-600.0)],
                             ids=["default", "custom", "high_clamp", "low_clamp"])
    @pytest.mark.parametrize("schedule", [
        lambda seed: schedule_from_ids(list(range(1, 19)), seed), short_entry_schedule],
        ids=["catalog", "short_entries"])
    def test_batched_jitter_matches_per_sample_draws(self, seed, params, schedule):
        sched = schedule(seed)
        got = [(s.seq, s.ts_ms, s.snr_db.hex(), s.mcs, s.bler.hex(), s.truth_interference)
               for s in iter_stream(sched, params)]
        assert got == list(reference_stream(sched, params))
        assert len(got) == sum(spec.duration_samples for spec in sched.entries)

    def test_off_scenario_truth_all_false(self):
        sched = schedule_from_ids([2], seed=11)
        samples = []
        synth_stream(sched, P, samples.append)
        assert len(samples) == 300
        assert not any(s.truth_interference for s in samples)

    def test_deterministic_for_seed(self):
        sched = schedule_from_ids([2, 1], seed=99, duration_samples=100)
        a, b = [], []
        synth_stream(sched, P, a.append)
        synth_stream(schedule_from_ids([2, 1], seed=99, duration_samples=100), P,
                     b.append)
        assert a == b

    def test_jam_onset_snr_drop(self):
        sched = schedule_from_ids([2, 1], seed=42)
        samples = []
        synth_stream(sched, P, samples.append)
        first = np.mean([s.snr_db for s in samples[:300]])
        second = np.mean([s.snr_db for s in samples[300:]])
        # 25.04 - 7.92 from the combining formula
        assert first - second == pytest.approx(17.12, abs=0.2)

    def test_seq_and_timestamps_monotone_no_gaps(self):
        sched = schedule_from_ids([1, 2, 3], seed=5, duration_samples=50)
        samples = []
        synth_stream(sched, P, samples.append)
        assert [s.seq for s in samples] == list(range(150))
        assert all(s.ts_ms == s.seq * 100 for s in samples)

    def test_sample_invariants(self):
        sched = schedule_from_ids([1, 2], seed=8, duration_samples=200)
        for s in iter_stream(sched, P):
            assert 0 <= s.mcs <= 28
            assert 0.0 <= s.bler <= 1.0

    def test_sample_mean_tracks_analytic_sinr(self):
        for sid in (1, 6, 9):
            sched = schedule_from_ids([sid], seed=13, duration_samples=10_000)
            samples = []
            synth_stream(sched, P, samples.append)
            mean = np.mean([s.snr_db for s in samples])
            assert mean == pytest.approx(sinr_db(SCENARIO_CATALOG[sid], P), abs=0.2)

    def test_bler_spike_at_onset(self):
        # OFF -> ON transitions with interference >= -20 dB
        for off_id, on_id in ((2, 1), (4, 3), (6, 5), (8, 7), (10, 9), (12, 11)):
            sched = schedule_from_ids([off_id, on_id], seed=21)
            samples = []
            synth_stream(sched, P, samples.append)
            before = np.mean([s.bler for s in samples[290:300]])
            after = np.mean([s.bler for s in samples[300:310]])
            assert after > before, (off_id, on_id)

    def test_sink_failure_aborts_with_partial_summary(self):
        # the sink's own exception ends the stream and propagates unchanged
        sched = schedule_from_ids([2], seed=1)
        seen = []
        failure = RuntimeError("sink down")

        def sink(s):
            seen.append(s)
            if s.seq == 42:
                raise failure

        with pytest.raises(RuntimeError) as exc_info:
            synth_stream(sched, P, sink)
        assert exc_info.value is failure
        assert vars(failure) == {}  # nothing attached to it
        assert [s.seq for s in seen] == list(range(43))

    def test_digest_reuses_the_reprs_a_sink_returns(self):
        # the digest of a sink that hands back its reprs, of one that returns
        # something else and of no sink is the same, and is the sha256 of the
        # samples' text
        sched = schedule_from_ids([2, 1], seed=6, duration_samples=40)
        samples = list(iter_stream(sched, P))
        text = "".join(f"{s.seq},{s.ts_ms},{s.snr_db!r},{s.mcs},{s.bler!r},"
                       f"{int(s.truth_interference)};" for s in samples)
        want = hashlib.sha256(text.encode("ascii")).hexdigest()
        sinks = [None, lambda s: (repr(s.snr_db), repr(s.bler)), lambda s: s.seq,
                 lambda s: [repr(s.snr_db), "not a repr"]]
        assert [synth_stream(sched, P, sink).digest for sink in sinks] == [want] * len(sinks)
