import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from jamloop import mlp
from jamloop.mlp import (LAYER_DIMS, ActivationError, DimensionError, MlpModel,
                         ModelError, TrainConfig, TrainingError, VersionFieldError,
                         forward, forward_batch, init_model, loss_and_grad, train)


def zero_model(version=0):
    weights = [np.zeros((a, b)) for a, b in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    biases = [np.zeros(b) for b in LAYER_DIMS[1:]]
    return MlpModel(weights=weights, biases=biases, version=version)


def separable_dataset(n=1000, seed=0):
    """Two SNR clusters 10+ dB apart, labels by cluster."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n // 2):
        data.append(((float(rng.normal(25.0, 0.5)), float(rng.uniform(0, 0.2)), 20.0), 0))
        data.append(((float(rng.normal(8.0, 0.5)), float(rng.uniform(0.5, 1.0)), 10.0), 1))
    return data


class TestForward:
    def test_zero_network_outputs_half(self):
        model = zero_model()
        for feats in ((0.0, 0.0, 0.0), (25.0, 0.3, 17.0), (-5.0, 1.0, 0.0)):
            assert forward(model, feats) == pytest.approx(0.5)

    def test_nonfinite_input_rejected(self):
        model = zero_model()
        with pytest.raises(ValueError):
            forward(model, (float("nan"), 0.1, 5.0))
        with pytest.raises(ValueError):
            forward(model, (float("inf"), 0.1, 5.0))

    @pytest.mark.parametrize("position", [1, 2], ids=["bler", "mcs"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_bler_or_mcs_rejected(self, position, bad):
        feats = [12.0, 0.1, 5.0]
        feats[position] = bad
        with pytest.raises(ValueError, match="non-finite"):
            forward(init_model(1), tuple(feats))

    def test_single_path_closed_form(self):
        # route one hidden unit per layer so the chain is analytically traceable:
        # h1 = relu(w * snr_norm), h2 = relu(v * h1), out = sigmoid(u * h2 + c)
        model = zero_model()
        w, v, u, c = 1.7, 0.9, 2.3, -0.4
        model.weights[0][0, 0] = w
        model.weights[1][0, 0] = v
        model.weights[2][0, 0] = u
        model.biases[2][0] = c
        snr = 14.0
        snr_norm = (snr + 10.0) / 50.0
        expected = 1.0 / (1.0 + math.exp(-(u * max(0.0, v * max(0.0, w * snr_norm)) + c)))
        assert forward(model, (snr, 0.0, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_batch_matches_scalar(self):
        model = init_model(3)
        rng = np.random.default_rng(4)
        feats = np.column_stack([rng.uniform(-10, 40, 50), rng.uniform(0, 1, 50),
                                 rng.integers(0, 29, 50).astype(float)])
        batch = forward_batch(model, feats)
        for row, prob in zip(feats, batch):
            assert forward(model, tuple(row)) == float(prob)


def _reference_forward(model, features):
    """The scalar forward pass as first written, whose bits forward must keep.

    A (1, 3) row through `@`, bias and ReLU out of place, and the array
    sigmoid over exp(-|z|).
    """
    snr_db, bler, mcs = features
    a = np.array([(snr_db + 10.0) / 50.0, bler, mcs / 28.0])[None, :]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(0.0, a @ w + b)
    z = (a @ model.weights[-1] + model.biases[-1]).ravel()
    e = np.exp(-np.abs(z))
    return float(np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))[0])


def random_features(rng, n):
    """Raw (snr_db, bler, mcs) triples over and past the operating range; integer mcs."""
    return [(float(rng.uniform(-20, 50)), float(rng.uniform(0, 1)), int(rng.integers(0, 29)))
            for _ in range(n)]


class TestForwardMatchesReference:
    """forward must return the same bits as `_reference_forward`: ==, not approx."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_init_models(self, seed):
        model = init_model(seed)
        for feats in random_features(np.random.default_rng(seed), 2000):
            assert forward(model, feats) == _reference_forward(model, feats)

    def test_trained_model(self):
        model, _ = train(overlapping_dataset(600, 0.15, seed=8),
                         TrainConfig(seed=2, epochs=10))
        for feats in random_features(np.random.default_rng(9), 5000):
            assert forward(model, feats) == _reference_forward(model, feats)

    def test_logit_near_zero(self):
        # shift the output bias so the logit lands within about 1e-15 of 0 on
        # either side, where the sigmoid's two branches meet
        rng = np.random.default_rng(10)
        signs = set()
        for seed in range(50):
            model = init_model(seed)
            feats = random_features(rng, 1)[0]
            p = _reference_forward(model, feats)
            base = model.biases[-1][0] - math.log(p / (1.0 - p))
            for k in range(-5, 6):
                model.biases[-1][0] = base + k * 1e-15
                got = forward(model, feats)
                assert got == _reference_forward(model, feats)
                assert abs(got - 0.5) < 1e-12
                signs.add(got >= 0.5)
        assert signs == {True, False}

    @pytest.mark.parametrize("scale", [30.0, 300.0, 3000.0])
    def test_large_logits(self, scale):
        # |z| from tens to beyond 745, where exp(-|z|) underflows to 0
        rng = np.random.default_rng(11)
        for seed in range(10):
            model = init_model(seed)
            model.weights[-1] *= scale
            for feats in random_features(rng, 200):
                assert forward(model, feats) == _reference_forward(model, feats)

    def test_integer_mcs(self):
        model = init_model(12)
        for mcs in range(29):
            feats = (14.5, 0.25, mcs)
            got = forward(model, feats)
            assert got == _reference_forward(model, feats)
            assert got == forward(model, (14.5, 0.25, float(mcs)))


class TestLossAndGrad:
    def test_bce_at_uniform_prediction_is_ln2(self):
        model = zero_model()  # prob 0.5 everywhere
        feats = np.array([[10.0, 0.1, 5.0], [20.0, 0.9, 15.0]])
        labels = np.array([0, 1])
        loss, _, _ = loss_and_grad(model, feats, labels)
        assert loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_bce_near_perfect_predictions(self):
        model = zero_model()
        model.biases[2][0] = 30.0  # prob ~ 1 - 1e-13
        feats = np.array([[10.0, 0.1, 5.0]])
        loss, _, _ = loss_and_grad(model, feats, np.array([1]))
        assert loss < 1e-8

    def test_gradients_match_central_finite_differences(self):
        # independent oracle: perturb every parameter with step 1e-5
        rng = np.random.default_rng(12)
        failures = 0
        for draw in range(100):
            model = init_model(seed=1000 + draw)
            n = int(rng.integers(2, 9))
            feats = np.column_stack([rng.uniform(-10, 40, n), rng.uniform(0, 1, n),
                                     rng.integers(0, 29, n).astype(float)])
            labels = rng.integers(0, 2, n)
            _, gw, gb = loss_and_grad(model, feats, labels)
            # spot-check a handful of coordinates per draw for speed
            for _ in range(6):
                layer = int(rng.integers(0, len(model.weights)))
                use_bias = bool(rng.integers(0, 2))
                h = 1e-5
                if use_bias:
                    j = int(rng.integers(0, model.biases[layer].size))
                    model.biases[layer][j] += h
                    lp, _, _ = loss_and_grad(model, feats, labels)
                    model.biases[layer][j] -= 2 * h
                    lm, _, _ = loss_and_grad(model, feats, labels)
                    model.biases[layer][j] += h
                    analytic = gb[layer][j]
                else:
                    i = int(rng.integers(0, model.weights[layer].shape[0]))
                    j = int(rng.integers(0, model.weights[layer].shape[1]))
                    model.weights[layer][i, j] += h
                    lp, _, _ = loss_and_grad(model, feats, labels)
                    model.weights[layer][i, j] -= 2 * h
                    lm, _, _ = loss_and_grad(model, feats, labels)
                    model.weights[layer][i, j] += h
                    analytic = gw[layer][i, j]
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(analytic), 1e-8)
                if abs(numeric - analytic) / denom >= 1e-4:
                    failures += 1
        assert failures == 0


class TestTrain:
    def test_separable_set_reaches_high_accuracy(self):
        model, report = train(separable_dataset(), TrainConfig(seed=1, epochs=30))
        assert report.val_accuracy >= 0.99

    def test_single_class_refused(self):
        data = [((20.0, 0.1, 15.0), 0) for _ in range(100)]
        with pytest.raises(TrainingError):
            train(data, TrainConfig(seed=1))

    def test_too_small_refused(self):
        with pytest.raises(TrainingError):
            train(separable_dataset(n=8), TrainConfig(seed=1))

    @pytest.mark.filterwarnings("error")
    def test_split_without_training_rows_refused(self):
        # 5 rows per class at val_fraction 0.95: the stratified split puts all 10
        # in validation, which once returned the untrained init model
        data = separable_dataset(n=10)
        with pytest.raises(TrainingError, match="val_fraction 0.95 leaves no training rows of 10"):
            train(data, TrainConfig(seed=1, val_fraction=0.95))
        _, report = train(data, TrainConfig(seed=1, val_fraction=0.85, epochs=3))
        assert (report.n_train, report.n_val) == (2, 8)

    @pytest.mark.parametrize("lone", [0, 1], ids=["clean", "interference"])
    def test_class_without_training_rows_refused(self, lone):
        # the split keeps one row of each class for validation, so a class of one
        # row leaves training with the other class only
        data = [((25.0, 0.1, 20.0), 1 - lone)] * 30 + [((8.0, 0.8, 10.0), lone)]
        name = ["clean", "interference"][lone]
        with pytest.raises(TrainingError,
                           match=f"val_fraction 0.2 leaves no {name} training rows of 1"):
            train(data, TrainConfig(seed=1))

    def test_negative_seed_refused(self):
        # numpy's generator would refuse it at the first fit, with its own ValueError
        with pytest.raises(ValueError, match="seed -1 is below 0"):
            TrainConfig(seed=-1).validate()
        with pytest.raises(ValueError, match="seed -1 is below 0"):
            train(separable_dataset(), TrainConfig(seed=-1))
        TrainConfig(seed=0).validate()

    @pytest.mark.parametrize("bad", [2, -1, 0.7, math.nan, "1"])
    def test_label_other_than_0_or_1_refused(self, bad):
        # 2 once dropped its rows from both splits, 0.7 was truncated to 0, and
        # "1" was read as 1
        data = separable_dataset(n=60) + [((15.0, 0.5, 12.0), bad)] * 5
        with pytest.raises(ValueError, match=f"^label {re.escape(repr(bad))} is not 0 or 1$"):
            train(data, TrainConfig(seed=1, epochs=2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    def test_diverging_fit_refused(self):
        # at this rate the first epoch's parameters overflow; building a model from
        # them once raised ModelError, which callers read as a bad model file
        with pytest.raises(TrainingError,
                           match=r"parameters of epoch 0 are not finite at learning_rate 1e\+300"):
            train(separable_dataset(), TrainConfig(seed=1, epochs=5, learning_rate=1e300))

    def test_diverging_fit_warns_nothing(self):
        # the overflow to inf and NaN is numpy's to ignore, as the TrainingError
        # reports it: a RuntimeWarning here would raise in place of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="fit diverged"):
                train(separable_dataset(), TrainConfig(seed=1, epochs=5, learning_rate=1e300))

    def test_deterministic_given_seed(self):
        # overlapping classes: the fit never scores 1.0, so it runs every epoch
        data = overlapping_dataset(200, 0.5, seed=3)
        m1, r1 = train(data, TrainConfig(seed=7, epochs=10))
        m2, _ = train(data, TrainConfig(seed=7, epochs=10))
        assert len(r1.epoch_loss) == 10
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_loss_trend_non_increasing_smoothed(self):
        _, report = train(overlapping_dataset(600, 0.5, seed=5),
                          TrainConfig(seed=2, epochs=30))
        assert len(report.epoch_loss) == 30  # 26 smoothed values, not one
        smoothed = np.convolve(report.epoch_loss, np.ones(5) / 5, mode="valid")
        assert smoothed[-1] <= smoothed[0] + 1e-6

    def test_normalization_maps_operating_range_into_unit_box(self):
        from jamloop.mlp import normalize_features
        for snr in (-10.0, 0.0, 40.0):
            for m in (0.0, 28.0):
                for b in (0.0, 1.0):
                    x = normalize_features(snr, b, m)
                    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def _reference_norm(f):
    return np.column_stack([(f[:, 0] + 10.0) / 50.0, f[:, 1], f[:, 2] / 28.0])


def _reference_sigmoid(z):
    """Boolean-mask sigmoid: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_predict(ws, bs, x):
    """Probabilities of normalized rows x: `a @ w + b` per layer, then `_reference_sigmoid`."""
    a = x
    for w, b in zip(ws[:-1], bs[:-1]):
        a = np.maximum(0.0, a @ w + b)
    return _reference_sigmoid((a @ ws[-1] + bs[-1]).ravel())


def _reference_grads(ws, bs, feats, labels, sample_w):
    """Weighted BCE and its gradients for raw feature rows, as a plain per-layer loop."""
    y = labels.astype(float)
    sw = sample_w / np.sum(sample_w)
    acts = [_reference_norm(feats)]
    for w, b in zip(ws[:-1], bs[:-1]):
        acts.append(np.maximum(0.0, acts[-1] @ w + b))
    z = (acts[-1] @ ws[-1] + bs[-1]).ravel()
    loss = float(np.sum(sw * (np.logaddexp(0.0, z) - y * z)))
    delta = (sw * (_reference_sigmoid(z) - y))[:, None]
    gw, gb = [None] * len(ws), [None] * len(bs)
    for layer in range(len(ws) - 1, -1, -1):
        gw[layer] = acts[layer].T @ delta
        gb[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ ws[layer].T) * (acts[layer] > 0)
    return loss, gw, gb


def _reference_train(dataset, cfg, version=0):
    """Training as a plain per-layer loop: the arithmetic mlp.train must keep.

    Separate weight/bias arrays, per-layer Adam moments, raw features
    normalized per minibatch and the boolean-mask `_reference_sigmoid`;
    each minibatch's gradients come from `_reference_grads`.
    """
    norm, predict, grads = _reference_norm, _reference_predict, _reference_grads
    features = np.array([list(f) for f, _ in dataset], dtype=float)
    labels = np.array([y for _, y in dataset], dtype=int)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = [], []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        n_val = max(1, int(round(len(idx) * cfg.val_fraction)))
        val_idx.append(idx[:n_val])
        train_idx.append(idx[n_val:])
    train_idx = np.sort(np.concatenate(train_idx))
    val_idx = np.sort(np.concatenate(val_idx))
    x_tr, y_tr = features[train_idx], labels[train_idx]
    x_va, y_va = features[val_idx], labels[val_idx]
    if min(n_pos, n_neg) / len(labels) < 0.30:
        class_w = {0: len(labels) / (2.0 * n_neg), 1: len(labels) / (2.0 * n_pos)}
        w_tr = np.array([class_w[int(y)] for y in y_tr])
    else:
        w_tr = np.ones(len(y_tr))

    init_rng = np.random.default_rng(cfg.seed)
    ws = [np.sqrt(2.0 / a) * init_rng.standard_normal((a, b))
          for a, b in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    bs = [np.zeros(b) for b in LAYER_DIMS[1:]]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in ws]
    v_w = [np.zeros_like(w) for w in ws]
    m_b = [np.zeros_like(b) for b in bs]
    v_b = [np.zeros_like(b) for b in bs]
    t = 0
    lr = cfg.learning_rate
    best, best_acc, best_epoch = None, -1.0, 0
    epoch_loss, epoch_val = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(y_tr))
        losses = []
        for start in range(0, len(y_tr), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            loss, gw, gb = grads(ws, bs, x_tr[sel], y_tr[sel], w_tr[sel])
            losses.append(loss)
            t += 1
            for i in range(len(ws)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                mhw, vhw = m_w[i] / (1 - beta1 ** t), v_w[i] / (1 - beta2 ** t)
                mhb, vhb = m_b[i] / (1 - beta1 ** t), v_b[i] / (1 - beta2 ** t)
                ws[i] -= lr * mhw / (np.sqrt(vhw) + eps)
                bs[i] -= lr * mhb / (np.sqrt(vhb) + eps)
        val_acc = float(np.mean((predict(ws, bs, norm(x_va)) >= 0.5).astype(int) == y_va))
        epoch_loss.append(float(np.mean(losses)))
        epoch_val.append(val_acc)
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best = ([w.copy() for w in ws], [b.copy() for b in bs])
    report = mlp.TrainReport(epoch_loss=epoch_loss, epoch_val_accuracy=epoch_val,
                             best_epoch=best_epoch, val_accuracy=best_acc, n_train=len(y_tr), n_val=len(y_va),
                             class_counts={"clean": n_neg, "interference": n_pos})
    return best, report


def overlapping_dataset(n, minority_frac, seed):
    """Classes 4 dB apart in SNR under 4 dB spread, so training never saturates."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        y = int(rng.random() < minority_frac)
        data.append(((float(rng.normal(8.0 if y else 12.0, 4.0)), float(rng.uniform(0, 1)),
                      float(rng.integers(0, 29))), y))
    return data


def margin_dataset(n, margin_db, seed):
    """Classes 10 dB wide on either side of a margin_db gap in SNR: separable,
    but a fit scores every holdout row right only after a few epochs."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n // 2):
        for y, snr in ((0, 12.0 + margin_db / 2 + rng.uniform(0, 10)),
                       (1, 12.0 - margin_db / 2 - rng.uniform(0, 10))):
            data.append(((float(snr), float(rng.uniform(0, 1)), float(rng.integers(0, 29))), y))
    return data


def _assert_grads_match_reference(model, feats, labels, sample_w=None):
    """loss_and_grad and _backprop give `_reference_grads`' bytes; returns the logits."""
    ref_loss, ref_gw, ref_gb = _reference_grads(
        model.weights, model.biases, feats, labels,
        np.ones(len(labels)) if sample_w is None else sample_w)
    loss, gw, gb = loss_and_grad(model, feats, labels, sample_w)
    assert loss.hex() == ref_loss.hex()
    sw = np.full(len(labels), 1.0 / len(labels)) if sample_w is None \
        else sample_w / np.sum(sample_w)
    grad = np.empty(mlp.N_PARAMS)
    step, = mlp._workspace(mlp._pack(model), grad, mlp._normalize(feats),
                           np.empty(len(labels)), len(labels))
    z = mlp._backprop(step, labels.astype(float), sw)
    bp_gw, bp_gb = mlp._unpack(grad)
    for want, *got in zip(ref_gw + ref_gb, gw + gb, bp_gw + bp_gb):
        for g in got:
            assert g.shape == want.shape and g.tobytes() == want.tobytes()
    return z


def hidden(model, feats):
    """The ReLU outputs of both hidden layers for raw feature rows."""
    step, = mlp._workspace(mlp._pack(model), np.empty(mlp.N_PARAMS), mlp._normalize(feats),
                           np.empty(len(feats)), len(feats))
    mlp._backprop(step, None, None)
    return step.h1o, step.h2o


def random_batch(rng, n):
    feats = np.column_stack([rng.uniform(-20, 50, n), rng.uniform(0, 1, n),
                             rng.integers(0, 29, n).astype(float)])
    return feats, rng.integers(0, 2, n)


class TestGradsMatchReference:
    """loss_and_grad and _backprop keep the bits of `_reference_grads`: compared by bytes."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_batches(self, weighted):
        rng = np.random.default_rng(30)
        for seed in range(40):
            feats, labels = random_batch(rng, int(rng.integers(2, 65)))
            sample_w = rng.uniform(0.1, 3.0, len(labels)) if weighted else None
            _assert_grads_match_reference(init_model(seed), feats, labels, sample_w)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_every_row_count(self, weighted):
        # 1 to 65 rows: each tail size of a 32-row step, and the one-row product
        # that numpy hands to gemv
        rng = np.random.default_rng(36)
        for n in range(1, 66):
            feats, labels = random_batch(rng, n)
            sample_w = rng.uniform(0.1, 3.0, n) if weighted else None
            _assert_grads_match_reference(init_model(n), feats, labels, sample_w)

    def test_zero_logits(self):
        # zero output weights and bias put every logit at exactly +0.0; `dot`
        # sums from +0.0, so no model gives -0.0, and the sigmoid is pinned
        # there directly
        model = init_model(31)
        model.weights[-1][...] = 0.0
        model.biases[-1][...] = 0.0
        feats, labels = random_batch(np.random.default_rng(31), 12)
        z = _assert_grads_match_reference(model, feats, labels)
        assert z.tobytes() == np.zeros(12).tobytes()
        zeros = np.array([0.0, -0.0])
        assert mlp._sigmoid(zeros).tobytes() == _reference_sigmoid(zeros).tobytes()
        assert mlp._sigmoid(zeros).tolist() == [0.5, 0.5]

    def test_logits_past_745(self):
        # exp(-|z|) underflows to 0 beyond |z| = 745, on either side
        rng = np.random.default_rng(32)
        model = init_model(32)
        model.weights[-1] *= 3000.0
        feats, labels = random_batch(rng, 64)
        z = _assert_grads_match_reference(model, feats, labels, rng.uniform(0.1, 3.0, 64))
        assert np.any(z > 745.0) and np.any(z < -745.0)
        big = np.array([745.5, -745.5, 800.0, -800.0, 1e300, -1e300])
        assert mlp._sigmoid(big).tobytes() == _reference_sigmoid(big).tobytes()

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_row_batch(self, label):
        rng = np.random.default_rng(33)
        for seed in range(10):
            feats, _ = random_batch(rng, 1)
            _assert_grads_match_reference(init_model(seed), feats, np.array([label]))
            _assert_grads_match_reference(init_model(seed), feats, np.array([label]),
                                          np.array([2.5]))

    @pytest.mark.parametrize("dead", [0, 1])
    def test_dead_hidden_layer(self, dead):
        # a bias far below the pre-activations zeroes every ReLU output of one layer
        model = init_model(34)
        model.biases[dead][...] = -1e3
        feats, labels = random_batch(np.random.default_rng(34), 20)
        _assert_grads_match_reference(model, feats, labels)
        h = hidden(model, feats)[dead]
        assert not np.any(h)
        _, gw, _ = loss_and_grad(model, feats, labels)
        assert not np.any(gw[dead])


class TestForwardBatchMatchesReference:
    """forward_batch gives each row `forward`'s bits: compared by bytes."""

    @staticmethod
    def assert_rows_match_forward(model, feats):
        want = np.array([forward(model, tuple(row)) for row in feats])
        got = forward_batch(model, feats)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.fixture(scope="class")
    def trained(self):
        return train(overlapping_dataset(600, 0.15, seed=8), TrainConfig(seed=2, epochs=10))[0]

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100, 10_800])
    def test_init_and_trained_models(self, n, trained):
        feats, _ = random_batch(np.random.default_rng(37 + n), n)
        for model in (init_model(n), trained):
            self.assert_rows_match_forward(model, feats)

    def test_non_contiguous_input(self, trained):
        # every other row and column of a wider array: no row is C-contiguous
        feats, _ = random_batch(np.random.default_rng(39), 200)
        wide = np.zeros((400, 6))
        wide[::2, ::2] = feats
        strided = wide[::2, ::2]
        assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
        for model in (init_model(39), trained):
            self.assert_rows_match_forward(model, strided)
            assert forward_batch(model, strided).tobytes() == \
                forward_batch(model, feats).tobytes()

    def test_one_row_batches(self):
        # a one-row batch keeps the bits of `_reference_predict` as well; few
        # one-row logits show a change of summation order, so try many
        rng = np.random.default_rng(38)
        for seed in range(200):
            feats, _ = random_batch(rng, 1)
            model = init_model(seed)
            want = _reference_predict(model.weights, model.biases, _reference_norm(feats))
            assert forward_batch(model, feats).tobytes() == want.tobytes()
            self.assert_rows_match_forward(model, feats)


class TestFloatMasksMatchBoolMasks:
    """`_backprop` masks deltas with np.sign(h), the reference with h > 0; the
    bytes must agree where activations are +inf, NaN or exactly zero."""

    @staticmethod
    def extreme_model():
        model = init_model(35)
        w0, w1, _ = model.weights
        w0[:, :2] = [[1e308], [0.0], [1e308]]  # h1 units 0, 1: +inf at high snr and mcs
        w0[:, 3] = [1e308, 1e308, 0.0]         # h1 unit 3: +inf at high snr and bler
        model.biases[0][2] = -1e3              # h1 unit 2 is dead: exact zeros
        w1[[0, 1]] = 0.0
        w1[0, 0], w1[1, 0] = 1.0, -1.0         # h2 unit 0: inf - inf = NaN
        w1[3] = -1.0
        w1[3, 1] = 1.0                         # h2 unit 1: +inf, the rest -inf, so 0
        return model

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4], [0, 2, 3, 4]],
                             ids=["nan_row", "inf_rows_only"])
    def test_inf_nan_and_zero_activations(self, rows):
        model = self.extreme_model()
        feats = np.array([[5.0, 0.2, 3.0], [50.0, 0.0, 28.0], [50.0, 1.0, 0.0],
                          [0.0, 0.5, 10.0], [45.0, 0.9, 1.0]])[rows]
        labels = np.array([0, 1, 0, 1, 1])[rows]
        h1, h2 = hidden(model, feats)
        assert np.isposinf(h1).any() and np.isposinf(h2).any()
        assert (h1 == 0).any() and (h2 == 0).any()
        assert np.isnan(h2).any() == (1 in rows)
        z = _assert_grads_match_reference(model, feats, labels)
        assert np.isinf(z).any() and np.isfinite(z).any()
        _, gw, _ = loss_and_grad(model, feats, labels)
        if 1 not in rows:  # no NaN row: the +inf rows' masks reach finite weight gradients
            assert np.isfinite(gw[0]).all() and np.isfinite(gw[1]).any()


class TestTrainMatchesReference:
    # Adam is train's only optimizer; the case ids keep its name
    @pytest.mark.parametrize("minority_frac,batch_size", [(0.5, 32), (0.15, 7)],
                             ids=["0.5-32-ADAM", "0.15-7-ADAM"])
    def test_bit_identical_to_per_layer_loop(self, minority_frac, batch_size):
        data = overlapping_dataset(600, minority_frac, seed=21)
        labels = [y for _, y in data]
        balanced = min(labels.count(0), labels.count(1)) / len(labels) >= 0.30
        assert balanced == (minority_frac == 0.5)  # covers both weighting paths
        cfg = TrainConfig(seed=5, epochs=12, batch_size=batch_size)
        model, report = train(data, cfg, version=4)
        (ref_w, ref_b), ref_report = _reference_train(data, cfg)
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert np.array_equal(got, want)
        assert report == ref_report
        assert model.version == 4
        assert len(report.epoch_loss) == len(report.epoch_val_accuracy) == cfg.epochs

    @pytest.mark.parametrize("data,seed,stop", [
        (separable_dataset(n=200, seed=3), 7, 0),
        (margin_dataset(400, 2.0, seed=1), 1, 8)], ids=["epoch_0", "epoch_8"])
    def test_stops_at_first_perfect_epoch(self, data, seed, stop):
        # the reference runs every epoch; no epoch after the first to score 1.0
        # can replace its checkpoint, so the fit returns it and stops there
        cfg = TrainConfig(seed=seed, epochs=30)
        model, report = train(data, cfg)
        (ref_w, ref_b), ref_report = _reference_train(data, cfg)
        assert (ref_report.best_epoch, ref_report.val_accuracy) == (stop, 1.0)
        assert len(ref_report.epoch_loss) == cfg.epochs
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert report == dataclasses.replace(
            ref_report, epoch_loss=ref_report.epoch_loss[:stop + 1],
            epoch_val_accuracy=ref_report.epoch_val_accuracy[:stop + 1])

    @pytest.mark.parametrize("batch_size,epochs",
                             [(64, 12), (1, 2), (480, 12), (4096, 12), (479, 12)],
                             ids=["64-ADAM", "1-ADAM", "n_train-ADAM", "over_n_train-ADAM",
                                  "one_row_tail-ADAM"])
    def test_batch_tilings_bit_identical(self, batch_size, epochs):
        # class-weighted rows, so the tail minibatch of 64 (480 = 7 * 64 + 32)
        # and the single minibatch of n_train and over_n_train weigh rows
        # unequally; 480 = 479 + 1 ends each epoch on a one-row minibatch
        data = overlapping_dataset(600, 0.15, seed=22)
        cfg = TrainConfig(seed=6, epochs=epochs, batch_size=batch_size)
        model, report = train(data, cfg)
        assert report.n_train == 480
        (ref_w, ref_b), ref_report = _reference_train(data, cfg)
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert np.array_equal(got, want)
        assert report == ref_report

    def test_returned_arrays_share_no_memory(self):
        model, _ = train(separable_dataset(n=200, seed=2), TrainConfig(seed=3, epochs=3))
        arrays = model.weights + model.biases
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestShortTailMatchesReference:
    """A short last minibatch at the default batch size keeps `_reference_train`'s bits."""

    @pytest.mark.parametrize("n,n_train", [(209, 167), (202, 161)], ids=["tail_7", "tail_1"])
    def test_short_tail_at_default_batch_size(self, n, n_train):
        # 167 = 5 * 32 + 7 training rows is the shape of small_window's v001 fit; a
        # short minibatch's h2 rows sit after a full one's h1 rows, so their trailing
        # 1s must survive the full minibatches around them. 161 ends on one row
        data = overlapping_dataset(n, 0.15, seed=23)
        cfg = TrainConfig(seed=6, epochs=12)
        model, report = train(data, cfg)
        assert (cfg.batch_size, report.n_train) == (32, n_train)
        (ref_w, ref_b), ref_report = _reference_train(data, cfg)
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert report == ref_report


class TestSerialization:
    def test_round_trip_prediction_equal(self, tmp_path):
        model, _ = train(separable_dataset(n=100), TrainConfig(seed=4, epochs=5),
                         version=2)
        path = tmp_path / "m.model"
        mlp.save(model, path)
        loaded = mlp.load(path)
        rng = np.random.default_rng(6)
        for _ in range(100):
            feats = (float(rng.uniform(-10, 40)), float(rng.uniform()),
                     float(rng.integers(0, 29)))
            assert forward(loaded, feats) == pytest.approx(forward(model, feats),
                                                           abs=1e-12)
        assert loaded.version == 2

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.model"
        dump = json.dump

        def failing_dump(obj, fp, **kw):  # writes half the file, then fails
            text = json.dumps(obj, **kw)
            fp.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            mlp.save(init_model(1, version=1), path)
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setattr(json, "dump", dump)
        mlp.save(init_model(1, version=1), path)
        before = path.read_bytes()
        assert before == json.dumps(json.loads(before), indent=1).encode()
        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            mlp.save(init_model(2, version=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]
        assert mlp.load(path).version == 1

    def test_file_keys_and_older_trained_on_ignored(self, tmp_path):
        import json
        model = init_model(1, version=3)
        path = tmp_path / "m.model"
        mlp.save(model, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["activations", "biases", "format", "layer_dims",
                               "normalization", "threshold", "version", "weights"]
        # files written by earlier releases carry the class counts as `trained_on`
        doc["trained_on"] = {"n_samples": 10, "n_clean": 6, "n_interference": 4}
        path.write_text(json.dumps(doc))
        loaded = mlp.load(path)
        assert loaded.version == 3
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert np.array_equal(got, want)

    def test_truncated_weights_name_layer(self, tmp_path):
        import json
        model = init_model(1, version=1)
        path = tmp_path / "m.model"
        mlp.save(model, path)
        doc = json.loads(path.read_text())
        doc["weights"][1] = doc["weights"][1][:-3]
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError, match="layer 1"):
            mlp.load(path)

    def test_missing_version_field(self, tmp_path):
        import json
        model = init_model(1)
        path = tmp_path / "m.model"
        mlp.save(model, path)
        doc = json.loads(path.read_text())
        del doc["version"]
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionFieldError):
            mlp.load(path)

    def test_unknown_activation(self, tmp_path):
        import json
        model = init_model(1, version=1)
        path = tmp_path / "m.model"
        mlp.save(model, path)
        doc = json.loads(path.read_text())
        doc["activations"] = ["relu", "tanh", "sigmoid"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ActivationError):
            mlp.load(path)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.pop("weights"),
        lambda d: d.pop("biases"),
        lambda d: d.pop("threshold"),
        lambda d: d.update(threshold="abc"),
        lambda d: d.update(threshold=1.5),
        lambda d: d.update(version="two"),
        lambda d: d.update(version=2.5),
        lambda d: d.update(version=2.0),
        lambda d: d.update(version=True),
        lambda d: d.update(version="4"),
        lambda d: d.update(version=-1),
        lambda d: d.update(version=None),
        lambda d: d["weights"][0].__setitem__(3, "x"),
        lambda d: d["weights"].pop(),
        lambda d: d.update(weights=5),
        lambda d: d.update(format="jamloop-mlp-v9"),
        lambda d: d.pop("format"),
        lambda d: d.update(threshold="0.5"),
        lambda d: d.update(threshold=True),
        lambda d: d["weights"][0].__setitem__(3, "0.25"),
        lambda d: d["weights"][0].__setitem__(3, True),
        lambda d: d["biases"][2].__setitem__(0, False),
        lambda d: d["normalization"].update(snr_shift=0.0),
        lambda d: d.pop("normalization"),
    ], ids=["no_weights", "no_biases", "no_threshold", "threshold_text", "threshold_1.5",
            "version_text", "version_fraction", "version_float", "version_bool",
            "version_string", "version_negative", "version_null", "weight_text",
            "missing_layer", "weights_not_list", "other_format", "no_format",
            "threshold_quoted", "threshold_bool", "weight_quoted", "weight_bool",
            "bias_bool", "normalization_changed", "no_normalization"])
    def test_bad_model_file_raises_model_error(self, tmp_path, corrupt):
        path = tmp_path / "m.model"
        mlp.save(init_model(1, version=1), path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=re.escape(str(path))):
            mlp.load(path)

    @pytest.mark.parametrize("field,value", [
        ("threshold", "0.5"), ("threshold", True), ("weights", "0.25"), ("weights", True),
        ("biases", False), ("weights", [0.25]), ("biases", None),
        pytest.param("weights", 10 ** 400, id="weights-huge_int"), ("biases", float("nan")), ("threshold", float("inf"))])
    def test_non_number_names_field(self, tmp_path, field, value):
        # only finite JSON numbers load: no quoted number, boolean, nested list, NaN,
        # infinity or integer past the largest float
        path = tmp_path / "m.model"
        mlp.save(init_model(1, version=1), path)
        doc = json.loads(path.read_text())
        if field == "threshold":
            doc["threshold"] = value
        else:
            doc[field][1][0] = value
        path.write_text(json.dumps(doc))
        name = "threshold" if field == "threshold" else f"layer 1 {field}"
        with pytest.raises(ModelError, match=re.escape(f"{path}: {name} must hold JSON numbers")):
            mlp.load(path)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    @pytest.mark.parametrize("edit", [
        lambda layers: {str(i): layer for i, layer in enumerate(layers)},
        lambda layers: layers[:-1],
        lambda layers: layers + [layers[-1]]], ids=["object", "too_short", "too_long"])
    def test_layer_list_shape_names_field(self, tmp_path, field, edit):
        # one entry per layer: an object, a missing layer and an extra one all fail
        path = tmp_path / "m.model"
        mlp.save(init_model(1, version=1), path)
        doc = json.loads(path.read_text())
        doc[field] = edit(doc[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=re.escape(
                f"{path}: {field} must be a JSON list of {len(mlp.LAYER_DIMS) - 1} layers")):
            mlp.load(path)

    @pytest.mark.parametrize("top", ["3", "[1, 2]", '"jamloop-mlp-v1"', "null"])
    def test_non_object_top_level_raises_model_error(self, tmp_path, top):
        path = tmp_path / "m.model"
        path.write_text(top)
        with pytest.raises(ModelError, match=re.escape(str(path))):
            mlp.load(path)
