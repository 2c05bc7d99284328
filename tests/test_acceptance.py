"""End-to-end acceptance criteria for the adaptive jamming-detection loop.

One test per criterion; each prints a single ACCEPTANCE <n> ...: PASS/FAIL
line so the suite output doubles as the acceptance report. Thresholds are
pinned here on purpose; do not loosen them to make a run green.
"""

import math
import threading
import time

import numpy as np
import pytest

from jamloop import mlp
from jamloop.detector import DetectorXapp
from jamloop.experiment import (default_experiment_config,
                                labeler_accuracy_by_scenario, run_experiment)
from jamloop.labeler import LabelerConfig, run_labeler, two_means
from jamloop.manager import (ClosedLoop, LoopConfig, ModelRegistry,
                             TRIGGER_LOW_AGREEMENT)
from jamloop.mlp import LAYER_DIMS, MlpModel, TrainConfig, forward, loss_and_grad
from jamloop.scenarios import (ChannelParams, FeatureSample, SCENARIO_CATALOG,
                               iter_stream, schedule_from_ids, sinr_db,
                               synth_stream)
from jamloop.store import TelemetryStore

SEED = 7
P = ChannelParams()


def verdict(n, desc, ok, detail=""):
    line = f"ACCEPTANCE {n} {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The full two-pass catalog experiment, 300 samples per scenario."""
    cfg = default_experiment_config(seed=SEED, samples_per_scenario=300, passes=2)
    t0 = time.perf_counter()
    report = run_experiment(cfg, registry_dir=tmp_path_factory.mktemp("models"))
    return report, time.perf_counter() - t0


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _depression_db(spec):
    """How far an ON scenario lowers mean SINR below the OFF scenario at its noise."""
    off = next(s for s in SCENARIO_CATALOG.values()
               if s.event == "OFF" and s.noise_amplitude == spec.noise_amplitude)
    return sinr_db(off, P) - sinr_db(spec, P)


class TestCriterion1AdaptiveVsStatic:
    def test_adaptive_loop_beats_static_baseline(self, default_run):
        report, runtime = default_run
        # A detector decides per sample from SNR, MCS and BLER. MCS is a
        # function of the SNR EWMA and BLER of SNR and MCS, so even one
        # trained on truth cannot beat Phi(depression / (2 sigma sqrt(alpha/2)))
        # on a window; both clauses hold only where that ceiling reaches 0.90.
        scale = 2 * P.snr_jitter_sigma_db * math.sqrt(P.ewma_alpha / 2)
        specs = SCENARIO_CATALOG
        ceiling = {w.label: min((_phi(_depression_db(specs[sid]) / scale)
                                 for sid in w.scenario_ids if specs[sid].event == "ON"),
                                default=1.0)
                   for w in report.windows}
        out_of_reach = [(label, round(c, 3)) for label, c in ceiling.items() if c < 0.90]
        assert [label for label, _ in out_of_reach] == ["1g", "1h", "1i",
                                                        "2g", "2h", "2i"], out_of_reach
        in_reach = [w for w in report.windows if ceiling[w.label] >= 0.90]

        deployed = report.first_deploy_seq is not None
        post = [w for w in in_reach
                if deployed and w.start_seq > report.first_deploy_seq]
        loop_high = bool(post) and all(
            w.loop_accuracy is not None and w.loop_accuracy >= 0.90 for w in post)
        # windows holding a scenario class the static model never saw
        unseen = [w for w in in_reach if any(sid > 6 for sid in w.scenario_ids)]
        baseline_drops = any(w.baseline_accuracy < 0.70 for w in unseen)
        in_budget = runtime <= 180.0
        below = [(w.label, None if w.loop_accuracy is None else round(w.loop_accuracy, 3))
                 for w in post if w.loop_accuracy is None or w.loop_accuracy < 0.90]
        verdict(1, "adaptive loop >=0.90 every in-reach post-deploy window, "
                   "static baseline <0.70 on an in-reach unseen window, <=3 min",
                deployed and loop_high and baseline_drops and in_budget,
                f"deployed={deployed} out_of_reach(window,ceiling)={out_of_reach} "
                f"below_0.90(window,loop_acc)={below} "
                f"baseline_drops={baseline_drops} runtime={runtime:.1f}s")


class TestCriterion2LabelerQuality:
    def test_labeler_accuracy_all_scenarios(self):
        t0 = time.perf_counter()
        sched = schedule_from_ids(list(range(1, 19)), seed=SEED,
                                  duration_samples=300)
        store = TelemetryStore()
        samples = []

        def sink(s):
            samples.append(s)
            store.append("kpi", s)

        summary = synth_stream(sched, P, sink)
        cfg = LabelerConfig()
        run_labeler(store, cfg)
        hi = store.max_seq("labels")
        labels = {r.seq: r.label for r in store.window("labels", 0, hi)}
        rows = labeler_accuracy_by_scenario(samples, labels, summary.segments,
                                            cfg.smoothing_halfwidth)
        runtime = time.perf_counter() - t0
        # The labeler does not know where a scenario starts, so it resolves a
        # level over one window. An ON scenario whose depression d below the
        # OFF scenario at its noise has a window Bayes ceiling Phi(d sqrt(w) / 2 sigma)
        # under 0.97 is out of reach; it is then reported CLEAN by the
        # labeler's definition, so OFF scenarios are never exempt.
        w = cfg.window_size
        ceiling = {sid: _phi(_depression_db(spec) * math.sqrt(w)
                             / (2 * P.snr_jitter_sigma_db))
                   for sid, spec in SCENARIO_CATALOG.items() if spec.event == "ON"}
        exempt = [(sid, round(c, 3)) for sid, c in sorted(ceiling.items()) if c < 0.97]
        assert [sid for sid, _ in exempt] == [13, 15, 17], exempt
        in_reach = [r for r in rows if ceiling.get(r.scenario_id, 1.0) >= 0.97]
        ok_excl = all(r.accuracy_transition_excluded >= 0.97 for r in in_reach)
        ok_raw = all(r.accuracy >= 0.93 for r in in_reach)
        in_budget = runtime <= 30.0
        failing = [(r.scenario_id, round(r.accuracy, 3),
                    round(r.accuracy_transition_excluded, 3))
                   for r in in_reach
                   if r.accuracy < 0.93 or r.accuracy_transition_excluded < 0.97]
        verdict(2, "labeler >=0.97 transition-excluded and >=0.93 raw "
                   "on every scenario in reach of one window, <=30 s",
                ok_excl and ok_raw and in_budget,
                f"runtime={runtime:.1f}s exempt(id,window_ceiling)={exempt} "
                f"failing(id,raw,excl)={failing}")


class TestCriterion3DriftResponsiveness:
    def test_single_retrain_after_unseen_regime(self, tmp_path):
        # deployed model learns scenarios 2/1; scenario 7 is a new class
        sched = schedule_from_ids([2, 1, 2, 7, 8], seed=9, duration_samples=300)
        store = TelemetryStore()
        det = DetectorXapp()
        registry = ModelRegistry(tmp_path / "models")
        loop = ClosedLoop(store, det, registry, LabelerConfig(),
                          LoopConfig(train=TrainConfig(seed=9, epochs=15)))
        for s in iter_stream(sched):
            loop.process(s)
        transcript = loop.close()

        transition_seq = 900
        drift = [e for e in transcript if e["event"] == "drift_report"
                 and e["trigger_reason"] == TRIGGER_LOW_AGREEMENT]
        timely = bool(drift) and drift[0]["window_end_seq"] - transition_seq <= 400
        retrains = [e for e in transcript if e["event"] == "retrain"
                    and e.get("history_high_seq", 0) >= transition_seq]
        deploys = [e for e in transcript if e["event"] == "deploy"
                   and e["deployed"] and e["kpi_high_seq"] >= transition_seq]
        verdict(3, "drift reported within 400 samples of an unseen regime, "
                   "then exactly one retrain and one deployment",
                timely and len(retrains) == 1 and len(deploys) == 1,
                f"drift_reports={len(drift)} retrains={len(retrains)} "
                f"deploys={len(deploys)}")


def _bias_model(version, out_bias):
    weights = [np.zeros((a, b)) for a, b in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    biases = [np.zeros(b) for b in LAYER_DIMS[1:]]
    biases[-1][0] = out_bias
    return MlpModel(weights=weights, biases=biases, version=version)


class TestCriterion4ZeroDowntimeSwap:
    def test_poisoned_race_harness(self):
        n_samples = 100_000
        n_swaps = 150
        stride = 600  # one swap per 600 processed samples: all land mid-replay
        models = {v: _bias_model(v, -6.0 + 12.0 * v / (n_swaps + 1))
                  for v in range(1, n_swaps + 2)}
        probes = {v: forward(m, (20.0, 0.1, 15.0)) for v, m in models.items()}

        det = DetectorXapp()
        det.swap_model(models[1])
        progress = [0]
        done = threading.Event()

        def swapper():
            for k in range(n_swaps):
                target = (k + 1) * stride
                while progress[0] < target:
                    time.sleep(0.0005)
                det.swap_model(models[k + 2])
            done.set()

        t = threading.Thread(target=swapper)
        t.start()
        records = []
        feature = FeatureSample(seq=0, ts_ms=0, snr_db=20.0, mcs=15, bler=0.1)
        for i in range(n_samples):
            records.append(det.infer(feature))
            progress[0] = i + 1
        t.join(timeout=30)

        versions = [r.model_version for r in records]
        complete = done.is_set() and len(records) == n_samples
        monotone = versions == sorted(versions)
        swaps_seen = len(set(versions))
        torn = sum(1 for r in records
                   if abs(r.prob - probes[r.model_version]) > 1e-12)
        verdict(4, ">=100 swaps during a 100000-sample replay: counts match, "
                   "versions non-decreasing, zero prob/version mismatches",
                complete and monotone and swaps_seen >= 100 and torn == 0,
                f"swaps_observed={swaps_seen} torn={torn}")


def _separable(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n // 2):
        data.append(((float(rng.normal(25.0, 0.5)), float(rng.uniform(0, 0.2)),
                      20.0), 0))
        data.append(((float(rng.normal(8.0, 0.5)), float(rng.uniform(0.5, 1.0)),
                      10.0), 1))
    return data


class TestCriterion5NumericalCore:
    def test_gradients_bce_roundtrip_training(self, tmp_path):
        # gradient check vs central finite differences
        rng = np.random.default_rng(12)
        grad_failures = 0
        for draw in range(100):
            model = mlp.init_model(seed=2000 + draw)
            n = int(rng.integers(2, 9))
            feats = np.column_stack([rng.uniform(-10, 40, n), rng.uniform(0, 1, n),
                                     rng.integers(0, 29, n).astype(float)])
            labels = rng.integers(0, 2, n)
            _, gw, gb = loss_and_grad(model, feats, labels)
            for _ in range(4):
                layer = int(rng.integers(0, 3))
                i = int(rng.integers(0, model.weights[layer].shape[0]))
                j = int(rng.integers(0, model.weights[layer].shape[1]))
                h = 1e-5
                model.weights[layer][i, j] += h
                lp, _, _ = loss_and_grad(model, feats, labels)
                model.weights[layer][i, j] -= 2 * h
                lm, _, _ = loss_and_grad(model, feats, labels)
                model.weights[layer][i, j] += h
                numeric = (lp - lm) / (2 * h)
                analytic = gw[layer][i, j]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                if abs(numeric - analytic) / denom >= 1e-4:
                    grad_failures += 1

        zero = _bias_model(0, 0.0)
        loss, _, _ = loss_and_grad(zero, np.array([[10.0, 0.1, 5.0]]),
                                   np.array([1]))
        bce_ok = abs(loss - math.log(2.0)) <= 1e-9

        model, report = mlp.train(_separable(), TrainConfig(seed=1, epochs=30))
        path = tmp_path / "m.model"
        mlp.save(model, path)
        loaded = mlp.load(path)
        rng = np.random.default_rng(6)
        rt_ok = all(
            abs(forward(loaded, f) - forward(model, f)) <= 1e-12
            for f in ((float(rng.uniform(-10, 40)), float(rng.uniform()),
                       float(rng.integers(0, 29))) for _ in range(100)))
        verdict(5, "gradient check <1e-4, BCE=ln2 +-1e-9, save/load to 1e-12, "
                   "separable validation >=0.99",
                grad_failures == 0 and bce_ok and rt_ok
                and report.val_accuracy >= 0.99,
                f"grad_failures={grad_failures} val={report.val_accuracy:.3f}")


class TestCriterion6EngineStatistics:
    def test_means_and_spikes(self):
        mean_ok = True
        off_ok = True
        worst = 0.0
        for sid, spec in SCENARIO_CATALOG.items():
            sched = schedule_from_ids([sid], seed=13, duration_samples=10_000)
            snrs = [s.snr_db for s in iter_stream(sched, P)]
            analytic = sinr_db(spec, P)
            err = abs(float(np.mean(snrs)) - analytic)
            worst = max(worst, err)
            if err > 0.2:
                mean_ok = False
            if spec.event == "OFF":
                noise_db = 20.0 * math.log10(spec.noise_amplitude)
                closed = P.signal_power_db - noise_db
                if abs(analytic - closed) > 0.01:
                    off_ok = False

        spike_ok = True
        for off_id, on_id in ((2, 1), (4, 3), (6, 5), (8, 7), (10, 9), (12, 11)):
            sched = schedule_from_ids([off_id, on_id], seed=21,
                                      duration_samples=300)
            samples = list(iter_stream(sched, P))
            before = np.mean([s.bler for s in samples[290:300]])
            after = np.mean([s.bler for s in samples[300:310]])
            if not after > before:
                spike_ok = False
        verdict(6, "sample SNR mean within 0.2 dB of analytic, OFF closed form "
                   "within 0.01 dB, BLER spike at every strong jam onset",
                mean_ok and off_ok and spike_ok,
                f"worst_mean_err={worst:.4f}dB spike_ok={spike_ok}")


class TestCriterion7Determinism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        from jamloop.cli import EXIT_OK, main
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  samples_per_scenario: 120\n  passes: 1\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["--config", str(cfg), "--seed", "5", "--out", str(out),
                         "run-experiment"])
            assert code == EXIT_OK
            outs.append(out)
        same = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("accuracy_by_window.csv", "labeler_by_scenario.csv",
                      "accuracy_by_window.dat"))
        verdict(7, "repeated run-experiment with identical config and seed "
                   "yields byte-identical CSV artifacts", same)


class TestCriterion8ClusteringOracle:
    def test_two_means_attains_brute_force_minimum(self):
        def brute_force(points):
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

        def wcss(points, assign):
            cost = 0.0
            for cls in (0, 1):
                part = points[assign == cls]
                if len(part):
                    c = part.mean(axis=0)
                    cost += float(((part - c) ** 2).sum())
            return cost

        rng = np.random.default_rng(77)
        mismatches = 0
        for _ in range(200):
            n = int(rng.integers(2, 13))
            pts = rng.normal(0, 1, size=(n, 2))
            assign = two_means(pts, pts[:, 0])
            if not math.isclose(wcss(pts, assign), brute_force(pts),
                                rel_tol=1e-9, abs_tol=1e-12):
                mismatches += 1
        verdict(8, "2-means equals brute-force minimum WCSS on 200 random "
                   "windows of <=12 samples", mismatches == 0,
                f"mismatches={mismatches}")
