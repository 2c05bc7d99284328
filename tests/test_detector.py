import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from jamloop.detector import (DetectorError, DetectorXapp, NoModelDeployedError,
                              StaleVersionError)
from jamloop.mlp import LAYER_DIMS, MlpModel, forward, forward_batch, init_model
from jamloop.scenarios import FeatureSample, KpiSample, iter_stream, schedule_from_ids
from jamloop.store import LABEL_CLEAN, LABEL_INTERFERENCE, DetectionRecord


def bias_model(version, out_bias=0.0):
    """Zero network except the output bias: prob = sigmoid(out_bias)."""
    weights = [np.zeros((a, b)) for a, b in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    biases = [np.zeros(b) for b in LAYER_DIMS[1:]]
    biases[-1][0] = out_bias
    return MlpModel(weights=weights, biases=biases, version=version)


def feature(seq, snr=20.0):
    return FeatureSample(seq=seq, ts_ms=seq * 100, snr_db=snr, mcs=15, bler=0.1)


class TestInfer:
    def test_infer_before_deployment_errors(self):
        det = DetectorXapp()
        with pytest.raises(NoModelDeployedError):
            det.infer(feature(0))

    def test_threshold_boundary_maps_to_interference(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1, out_bias=0.0))  # prob exactly 0.5
        rec = det.infer(feature(0))
        assert rec.prob == pytest.approx(0.5)
        assert rec.verdict == LABEL_INTERFERENCE

    def test_clean_verdict_below_threshold(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1, out_bias=-5.0))
        assert det.infer(feature(0)).verdict == LABEL_CLEAN

    def test_record_carries_version_and_seq(self):
        det = DetectorXapp()
        det.swap_model(bias_model(3, out_bias=1.0))
        rec = det.infer(feature(9))
        assert rec.model_version == 3
        assert rec.seq == 9


def random_model(version, seed, features):
    """Random weights, output bias set so that half of `features` read jammed."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0, 0.5, (a, b)) for a, b in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    biases = [rng.normal(0, 0.5, b) for b in LAYER_DIMS[1:]]
    model = MlpModel(weights=weights, biases=biases, version=version)
    p = forward_batch(model, features)
    model.biases[-1][0] -= np.median(np.log(p) - np.log1p(-p))
    return model


def scored(det, samples):
    """`score_batch`'s columns as the records `infer` returns, one per sample."""
    seqs, probs, verdicts, version = det.score_batch(samples)
    assert len(seqs) == len(probs) == len(verdicts) == len(samples)
    return [DetectionRecord(*row, version) for row in zip(seqs, probs, verdicts)]


class TestScoreBatch:
    def test_before_deployment_errors(self):
        with pytest.raises(NoModelDeployedError):
            DetectorXapp().score_batch([feature(0)])

    def test_empty_batch(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        assert det.score_batch([]) == ((), [], [], 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_sample_infer(self, seed):
        rng = np.random.default_rng(100 + seed)
        samples = [FeatureSample(seq=i, ts_ms=i * 100, snr_db=float(rng.uniform(-10, 40)),
                                 mcs=int(rng.integers(0, 29)),
                                 bler=float(rng.uniform(0, 1))) for i in range(300)]
        det = DetectorXapp()
        det.swap_model(random_model(4, seed, np.array(
            [(s.snr_db, s.bler, s.mcs) for s in samples])))
        batch = scored(det, samples)
        single = [det.infer(s) for s in samples]
        assert {r.verdict for r in single} == {LABEL_CLEAN, LABEL_INTERFERENCE}
        assert batch == single  # record for record
        assert [b.prob.hex() for b in batch] == [r.prob.hex() for r in single]
        assert all(type(b.prob) is float for b in batch)

    @pytest.mark.parametrize("out_bias, verdict", [(0.0, LABEL_INTERFERENCE),
                                                   (-5.0, LABEL_CLEAN)])
    def test_threshold_boundary(self, out_bias, verdict):
        # prob exactly 0.5 at out_bias 0 reaches the threshold, as in `infer`
        det = DetectorXapp()
        det.swap_model(bias_model(1, out_bias))
        records = scored(det, [feature(i) for i in range(3)])
        assert [r.verdict for r in records] == [verdict] * 3
        assert records == [det.infer(feature(i)) for i in range(3)]

    def test_swap_boundary_is_last_seq_of_batch(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        det.score_batch([feature(i) for i in range(10, 20)])
        assert det.swap_model(bias_model(2)).seq_boundary == 19


class TestSwap:
    def test_swap_receipt_and_partition(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1, -3.0))
        rows = [det.infer(feature(i)) for i in range(100)]
        receipt = det.swap_model(bias_model(2, 3.0))
        assert receipt.old_version == 1 and receipt.new_version == 2
        assert receipt.seq_boundary == 99
        rows += [det.infer(feature(i)) for i in range(100, 200)]
        assert [r.seq for r in rows] == list(range(200))
        versions = [r.model_version for r in rows]
        assert versions == [1] * 100 + [2] * 100

    def test_stale_version_rejected(self):
        det = DetectorXapp()
        det.swap_model(bias_model(2))
        with pytest.raises(StaleVersionError):
            det.swap_model(bias_model(2))
        with pytest.raises(StaleVersionError):
            det.swap_model(bias_model(1))
        assert det.deployed_version == 2

    def test_deployed_model_version_cannot_change(self):
        det = DetectorXapp()
        model = bias_model(2)
        det.swap_model(model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.version = 5
        assert det.deployed_version == 2
        assert det.infer(feature(0)).model_version == 2

    def test_concurrent_swaps_one_winner_per_version(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        wins, losses = [], []

        def try_swap():
            try:
                det.swap_model(bias_model(2))
                wins.append(1)
            except StaleVersionError:
                losses.append(1)

        threads = [threading.Thread(target=try_swap) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert len(losses) == 7
        assert det.deployed_version == 2


class TestRun:
    def test_versions_nondecreasing_across_interleaved_swaps(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        rows = []
        for i in range(400):
            if i in (100, 200, 300):
                det.swap_model(bias_model(1 + i // 100))
            rows.append(det.infer(feature(i)))
        versions = [r.model_version for r in rows]
        assert versions == sorted(versions)
        assert sorted(set(versions)) == [1, 2, 3, 4]

    def test_input_view_excludes_truth(self):
        assert not hasattr(feature(0), "truth_interference")


TRUTHFUL = KpiSample(4, 400, 20.0, 15, 0.1, True)
# samples with a FeatureSample's values that are not FeatureSample views
NOT_VIEWS = pytest.mark.parametrize(
    "sample", [TRUTHFUL, tuple(TRUTHFUL.public()), tuple(TRUTHFUL)],
    ids=["KpiSample", "tuple5", "tuple6"])


class TestTruthStaysOut:
    @NOT_VIEWS
    def test_infer_refuses_other_types(self, sample):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        with pytest.raises(DetectorError, match=f"got {type(sample).__name__}$"):
            det.infer(sample)
        assert det.swap_model(bias_model(2)).seq_boundary == -1  # nothing was scored

    @NOT_VIEWS
    def test_score_batch_refuses_other_types(self, sample):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        with pytest.raises(DetectorError, match=f"got {type(sample).__name__}$"):
            det.score_batch([feature(2), feature(3), sample])
        assert det.swap_model(bias_model(2)).seq_boundary == -1  # nothing was scored

    def test_public_view_is_accepted(self):
        det = DetectorXapp()
        det.swap_model(bias_model(1))
        assert det.infer(TRUTHFUL.public()).seq == 4
        assert det.score_batch([TRUTHFUL.public()])[0] == (4,)


def _catalog_stream():
    return [s.public() for s in iter_stream(schedule_from_ids(list(range(1, 19)), seed=7,
                                                              duration_samples=100))]


class TestOneInferencePath:
    """`infer`'s prob is `forward` of the sample's (snr_db, bler, mcs), and
    `score_batch` gives `infer`'s records as columns: ==, not approx."""

    @pytest.mark.parametrize("scale", [1.0, 300.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_infer_prob_is_forward(self, seed, scale):
        model = init_model(seed, version=1)
        model.weights[-1] *= scale  # x300: logits far out on both sides
        det = DetectorXapp()
        det.swap_model(model)
        stream = _catalog_stream()
        records = [det.infer(s) for s in stream]
        for rec, s in zip(records, stream):
            assert rec.seq == s.seq
            assert rec.prob == forward(model, (s.snr_db, s.bler, s.mcs))
        # the whole stream in one batch, and in the loop's 100-sample windows
        assert scored(det, stream) == records
        assert [r for a in range(0, len(stream), 100)
                for r in scored(det, stream[a:a + 100])] == records


class TestSwapAtomicityRace:
    def test_no_mismatched_prob_version_pair(self):
        """Poison harness: each version's model yields a distinct constant prob;
        any detection pairing a prob with the wrong version is a torn swap."""
        det = DetectorXapp()
        n_versions = 60
        expected = {}
        for v in range(1, n_versions + 1):
            m = bias_model(v, out_bias=-6.0 + 12.0 * v / n_versions)
            expected[v] = None
            if v == 1:
                det.swap_model(m)
                expected[v] = det.infer(feature(0)).prob
        models = {v: bias_model(v, out_bias=-6.0 + 12.0 * v / n_versions)
                  for v in range(2, n_versions + 1)}
        from jamloop.mlp import forward
        probes = {v: forward(m, (20.0, 0.1, 15.0)) for v, m in models.items()}
        probes[1] = expected[1]

        stop = threading.Event()
        swap_errors = []

        def swapper():
            for v in range(2, n_versions + 1):
                try:
                    det.swap_model(models[v])
                except StaleVersionError as exc:  # must never happen here
                    swap_errors.append(exc)
            stop.set()

        records = []
        t = threading.Thread(target=swapper)
        t.start()
        i = 0
        while not stop.is_set() or i < 5000:
            records.append(det.infer(feature(i)))
            i += 1
            if i > 200_000:
                break
        t.join()

        assert not swap_errors
        versions = [r.model_version for r in records]
        assert versions == sorted(versions)
        for r in records:
            assert r.prob == pytest.approx(probes[r.model_version], abs=1e-12)

    def test_one_version_per_batch_under_swaps(self):
        """The same poison harness over `score_batch`: a batch is torn if its
        rows carry two versions, or a prob of another version's model."""
        n_versions = 60
        models = {v: bias_model(v, out_bias=-6.0 + 12.0 * v / n_versions)
                  for v in range(1, n_versions + 1)}
        from jamloop.mlp import forward
        probes = {v: forward(m, (20.0, 0.1, 15.0)) for v, m in models.items()}
        det = DetectorXapp()
        det.swap_model(models[1])

        stop = threading.Event()
        swap_errors = []

        def swapper():
            for v in range(2, n_versions + 1):
                try:
                    det.swap_model(models[v])
                except StaleVersionError as exc:  # must never happen here
                    swap_errors.append(exc)
                time.sleep(0.0005)  # let batches run between swaps
            stop.set()

        batches = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # swaps land inside batches, not only between
        try:
            t = threading.Thread(target=swapper)
            t.start()
            i = 0
            while not stop.is_set() or len(batches) < 200:
                batches.append(scored(det, [feature(i + k) for k in range(25)]))
                i += 25
                if len(batches) > 20_000:
                    break
            t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive()

        assert not swap_errors
        assert batches[-1][0].model_version == n_versions
        versions = []
        for batch in batches:
            (version,) = {r.model_version for r in batch}
            versions.append(version)
            for r in batch:
                assert r.prob == pytest.approx(probes[version], abs=1e-12)
        assert versions == sorted(versions)
        assert len(set(versions)) > 1
