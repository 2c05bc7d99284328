"""Three-dense-layer binary classifier with from-scratch backprop training.

Architecture is fixed at [3, 16, 8, 1] with ReLU hidden units and a
sigmoid output. Inputs are (snr_db, bler, mcs) mapped through a fixed
affine normalization so retrained models stay comparable. Training is
minibatch Adam on binary cross-entropy, deterministic for a given seed,
checkpointing the epoch with the best validation accuracy. Only a strictly
higher accuracy replaces the checkpoint, so a fit stops at its first epoch
that classifies every holdout row right: the epochs it skips could change
only the per-epoch loss and accuracy lists, which end at that epoch.
All weights and biases train as one flat parameter vector. Each layer is a
view of it as one (fan_in + 1, fan_out) matrix [W; b], and every input and
hidden row carries a trailing 1, so one product applies a layer with its
bias and one product gives a layer's weight and bias gradients. Three
places keep their own arithmetic, because the folded one would change
bits: a one-row input takes layer 0 as x @ W0 + b0 (numpy hands it to
gemv, which sums 3 and 4 terms in different orders); b2's gradient is a
pairwise np.add.reduce, which overwrites the in-order BLAS sum; and the
layout stays row-major with the 1 last. A minibatch step makes 30 numpy
calls: 21 in `_backprop` (with `_sigmoid`'s one exp) and Adam's 9. Both
hidden layers' activations lie in one flat buffer, so one np.sign writes
both layers' float masks. Adam's m, v, g and g**2 are the rows of one
array, scaled in one multiply, and each epoch fills a table of its steps'
bias corrections 1 - b**t, in the operation order that fixes the bits.
Each fit builds one workspace, so a step slices, allocates, copies and
makes no view. That folded layout serves training and its holdout scoring
only: `forward` and `forward_batch` take each layer as h @ W, += b and
ReLU, one gemv per row, so a batch gives every row the bits of the scalar
path.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numbers import real, whole
from .store import atomic_writer

LAYER_DIMS = [3, 16, 8, 1]
ACTIVATIONS = ["relu", "relu", "sigmoid"]

# fixed affine feature normalization (input order: snr_db, bler, mcs)
SNR_SHIFT, SNR_SCALE = 10.0, 50.0
MCS_SCALE = 28.0

MODEL_FORMAT = "jamloop-mlp-v1"
# the scale above, as every MODEL_FORMAT file records it
NORMALIZATION = {"snr_shift": SNR_SHIFT, "snr_scale": SNR_SCALE, "mcs_scale": MCS_SCALE,
                 "bler": "identity"}
N_PARAMS = sum(fan_in * fan_out + fan_out
               for fan_in, fan_out in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:]))
# 0-d operands: a ufunc given one converts no Python float per call
_ZERO, _ONE, _NEG_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)


class ModelError(Exception):
    pass


class DimensionError(ModelError):
    pass


class ActivationError(ModelError):
    pass


class VersionFieldError(ModelError):
    pass


class TrainingError(Exception):
    pass


def normalize_features(snr_db, bler, mcs) -> np.ndarray:
    """Three floats, or three columns as a (3, n) array, at the model's input scale."""
    return np.array([(snr_db + SNR_SHIFT) / SNR_SCALE, bler, mcs / MCS_SCALE])


def _normalize(features: np.ndarray) -> np.ndarray:
    """(n, 3) raw (snr_db, bler, mcs) rows at the model's input scale, each
    followed by the 1 that multiplies layer 0's bias row: (n, 4)."""
    return np.column_stack([*normalize_features(*features.T), np.ones(len(features))])


def _sigmoid(z: np.ndarray, s: tuple | None = None) -> np.ndarray:
    """The logistic of 1-D z into row 0 of s, a (2, len(z)) scratch given as (both
    rows, row 0, row 1), or a new one. One exp of min(z, 0) and copysign(z, -1), the
    bits of -|z|, overflows nowhere: the bits of 1 or exp(-|z|), over 1 + exp(-|z|)."""
    if s is None:
        both = np.empty((2, len(z)))
        s = (both, both[0], both[1])
    both, lo, nabs = s
    np.minimum(z, _ZERO, out=lo)
    np.copysign(z, _NEG_ONE, out=nabs)
    np.exp(both, out=both)
    nabs += _ONE
    return np.divide(lo, nabs, out=lo)


def _layers(flat: np.ndarray) -> list[np.ndarray]:
    """Per-layer (fan_in + 1, fan_out) views [W; b] into one flat vector of N_PARAMS:
    each weight matrix with its bias as one more row."""
    layers, off = [], 0
    for fan_in, fan_out in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:]):
        layers.append(flat[off:off + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out))
        off += (fan_in + 1) * fan_out
    return layers


def _unpack(flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into one flat vector of N_PARAMS."""
    layers = _layers(flat)
    return [a[:-1] for a in layers], [a[-1] for a in layers]


def _pack(model: MlpModel) -> np.ndarray:
    """A copy of the model's parameters as one flat vector, in `_unpack`'s layout."""
    return np.concatenate([a.ravel() for w, b in zip(model.weights, model.biases)
                           for a in (w, b)])


@dataclass(frozen=True)
class MlpModel:
    weights: list[np.ndarray]  # weights[l]: (dims[l], dims[l+1])
    biases: list[np.ndarray]
    threshold: float = 0.5
    version: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if len(self.weights) != len(LAYER_DIMS) - 1 or len(self.biases) != len(self.weights):
            raise DimensionError(
                f"expected {len(LAYER_DIMS) - 1} weight/bias layers, "
                f"got {len(self.weights)}/{len(self.biases)}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (LAYER_DIMS[i], LAYER_DIMS[i + 1])
            if w.shape != want:
                raise DimensionError(f"layer {i}: weight shape {w.shape}, expected {want}")
            if b.shape != (LAYER_DIMS[i + 1],):
                raise DimensionError(
                    f"layer {i}: bias shape {b.shape}, expected ({LAYER_DIMS[i + 1]},)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ModelError(f"layer {i}: non-finite parameters")
        if not 0.0 < self.threshold < 1.0:
            raise ModelError(f"threshold {self.threshold} outside (0,1)")


def _init_params(seed: int) -> np.ndarray:
    """He-initialized flat parameter vector (biases zero)."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(N_PARAMS)
    for w in _unpack(theta)[0]:
        w[...] = math.sqrt(2.0 / w.shape[0]) * rng.standard_normal(w.shape)
    return theta


def init_model(seed: int, version: int = 0) -> MlpModel:
    """He-initialized random model."""
    weights, biases = _unpack(_init_params(seed))
    return MlpModel(weights=weights, biases=biases, version=version)


def forward(model: MlpModel, features: tuple[float, float, float]) -> float:
    """Probability of interference for one (snr_db, bler, mcs) triple.

    The per-sample hot path, with the fewest Python steps around the numpy
    calls its bits need. It unpacks the model's three weight matrices and
    three biases once, then runs each hidden layer on the one 1-D vector from
    `normalize_features` as h.dot(W) (gemv), += b and an in-place ReLU. The
    output layer is a third gemv; its bias is added and the sigmoid taken on
    Python floats, with np.exp, whose bits differ from math.exp's.
    `forward_batch` gives each row these same bits.
    """
    snr_db, bler, mcs = features
    if not (math.isfinite(snr_db) and math.isfinite(bler) and math.isfinite(mcs)):
        raise ValueError(f"non-finite features {features!r}")
    w0, w1, w2 = model.weights
    b0, b1, b2 = model.biases
    h = normalize_features(snr_db, bler, mcs).dot(w0)
    h += b0
    np.maximum(_ZERO, h, out=h)
    h = h.dot(w1)
    h += b1
    np.maximum(_ZERO, h, out=h)
    z = h.dot(w2).item() + b2.item()
    e = float(np.exp(-abs(z)))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def forward_batch(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Probabilities for an (n, 3) array of raw (snr_db, bler, mcs) rows, each
    with `forward`'s bits.

    Each layer is one stacked `@` over a C-contiguous (n, 1, k) array, which
    numpy runs as one gemv per row: the product `forward` takes. The rows are
    copied to C order first, because a strided one-row slice reaches another
    BLAS kernel whose sums differ in the last bits. The sigmoid's array form
    gives the bits of `forward`'s scalar one.
    """
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite features in batch")
    w0, w1, w2 = model.weights
    b0, b1, b2 = model.biases
    h = normalize_features(*features.T).T.copy()[:, None, :]
    for w, b in ((w0, b0), (w1, b1)):
        h = h @ w
        h += b
        np.maximum(_ZERO, h, out=h)
    z = (h @ w2).ravel()
    z += b2
    return _sigmoid(z)


def _bce(z: np.ndarray, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """Per-row weighted BCE from logits: sw * (softplus(z) - y*z), numerically stable."""
    return sw * (np.logaddexp(0.0, z) - y * z)


# a `_backprop` step's views: parameter and gradient layers, rows, logits, the
# hidden and mask buffers with each layer's part, the sigmoid's scratch and deltas
_Step = namedtuple("_Step", "a0 a1 a2 w1t w2t g0 g1 g2 gb2 x xt z z_col hm h1 h1o h1t h2 "
                            "h2o h2t mm m1 m2 sig d d_col dh1 dh2")


def _workspace(theta: np.ndarray, g: np.ndarray, x: np.ndarray, z: np.ndarray,
               bs: int) -> list[_Step]:
    """Per minibatch of bs rows of x, every view its `_backprop` step reads: the
    parameters theta, the gradient g, and one scratch; z receives the logits.

    A step's h1 (k, 17) and h2 (k, 9) rows, each ending in the 1 that multiplies
    the next layer's bias row, lie in one flat buffer, h2 at the fixed offset
    n * 17 of a full minibatch of n rows, so a short one's h2 keeps its 1s; one
    np.sign of the buffer's used part writes both layers' masks.
    """
    (a0, a1, a2), (g0, g1, g2) = _layers(theta), _layers(g)
    params = (a0, a1, a2, a1[:-1].T, a2[:-1].T, g0, g1, g2, g2[-1])
    n, (c1, c2) = min(bs, len(x)), (k + 1 for k in LAYER_DIMS[1:3])
    hm, mm, sig = np.ones(n * (c1 + c2)), np.empty(n * (c1 + c2)), np.empty(2 * n)
    dh1, dh2 = np.empty((n, c1 - 1)), np.empty((n, c2 - 1))

    def scratch(k: int) -> tuple:
        used = slice(0, n * c1 + k * c2)
        h1, h2, m1, m2 = (buf[o:o + k * c].reshape(k, c) for buf in (hm, mm)
                          for o, c in ((0, c1), (n * c1, c2)))
        s2 = sig[:2 * k].reshape(2, k)
        return (hm[used], h1, h1[:, :-1], h1.T, h2, h2[:, :-1], h2.T, mm[used], m1[:, :-1],
                m2[:, :-1], (s2, *s2), s2[0], s2[0, :, None], dh1[:k], dh2[:k])

    full, steps = scratch(n), []  # every full minibatch shares one set of scratch views
    for a in range(0, len(x), bs):
        xb, zb = x[a:a + bs], z[a:a + bs]
        part = full if len(xb) == n else scratch(len(xb))
        steps.append(_Step(*params, xb, xb.T, zb, zb[:, None], *part))
    return steps


def _backprop(step: _Step, y: np.ndarray | None, sw: np.ndarray | None) -> np.ndarray:
    """Exact gradients of the weighted BCE of a `_workspace` step's rows, into its g.

    sw are per-row weights summing to 1, y the labels as floats. Returns the
    logits, from which `_bce` gives the loss; with y None it runs the forward
    pass only and returns the rows' probabilities.
    """
    # unrolled for the fixed [3, 16, 8, 1] layers; nothing is allocated. A one-row
    # x takes layer 0 as x @ W0 + b0: numpy hands a one-row product to gemv, which
    # orders a sum of 3 and of 4 terms differently. np.maximum(0.0, h) keeps its
    # argument order, which fixes the sign of a zero activation, and leaves the
    # trailing 1. A product with the rows' trailing 1 writes layers 0 and 1's bias
    # gradients with their weights'; b2's stays a pairwise np.add.reduce, which
    # BLAS's in-order sum is not. np.sign(h) masks keep h > 0's bits: ReLU never
    # gives -0.0, and a NaN in h makes its row's deltas NaN
    (a0, a1, a2, w1t, w2t, g0, g1, g2, gb2, x, xt, z, z_col, hm, h1, h1o, h1t, h2, h2o, h2t,
     mm, m1, m2, sig, d, d_col, dh1, dh2) = step
    if len(x) == 1:
        x[:, :-1].dot(a0[:-1], out=h1o)
        h1o += a0[-1]
    else:
        np.matmul(x, a0, out=h1o)
    np.maximum(_ZERO, h1, out=h1)
    np.matmul(h1, a1, out=h2o)
    np.maximum(_ZERO, h2, out=h2)
    h2.dot(a2, out=z_col)
    _sigmoid(z, sig)
    if y is None:
        return d
    d -= y
    d *= sw
    h2t.dot(d_col, out=g2)
    np.add.reduce(d_col, axis=0, out=gb2)
    d_col.dot(w2t, out=dh2)
    np.sign(hm, out=mm)
    dh2 *= m2
    h1t.dot(dh2, out=g1)
    dh2.dot(w1t, out=dh1)
    dh1 *= m1
    xt.dot(dh1, out=g0)
    return z


def loss_and_grad(model: MlpModel, features: np.ndarray, labels: np.ndarray,
                  sample_weights: np.ndarray | None = None
                  ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean BCE and exact backprop gradients for a batch of raw feature rows."""
    n = len(labels)
    if n == 0:
        raise TrainingError("empty batch")
    if sample_weights is None:
        sw = np.full(n, 1.0 / n)
    else:
        sw = sample_weights / np.sum(sample_weights)
    g, y = np.empty(N_PARAMS), labels.astype(float)
    z = _backprop(_workspace(_pack(model), g, _normalize(features), np.empty(n), n)[0], y, sw)
    return float(_bce(z, y, sw).sum()), *_unpack(g)


def _batch_sums(a: np.ndarray, batch_size: int) -> np.ndarray:
    """Sum of each consecutive minibatch of a; the last one may be shorter."""
    n_full = len(a) // batch_size
    sums = a[:n_full * batch_size].reshape(n_full, batch_size).sum(axis=1)
    if n_full * batch_size < len(a):
        sums = np.append(sums, a[n_full * batch_size:].sum())
    return sums


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-2
    seed: int = 0
    val_fraction: float = 0.2

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0,1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is below 0")


@dataclass
class TrainReport:
    epoch_loss: list[float]
    epoch_val_accuracy: list[float]
    best_epoch: int
    val_accuracy: float
    n_train: int
    n_val: int
    class_counts: dict


def _stratified_split(labels: np.ndarray, val_fraction: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train_idx, val_idx = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = rng.permutation(idx)
        n_val = max(1, int(round(len(idx) * val_fraction)))
        val_idx.append(idx[:n_val])
        train_idx.append(idx[n_val:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def train(dataset: list[tuple[tuple[float, float, float], int]],
          cfg: TrainConfig, version: int = 0) -> tuple[MlpModel, TrainReport]:
    """Train on (features, label) pairs; returns the best-validation checkpoint.

    The checkpoint is the first epoch with the highest holdout accuracy, and
    the fit stops there once that accuracy is 1.0, so `TrainReport`'s
    `epoch_loss` and `epoch_val_accuracy` hold `cfg.epochs` entries only for
    a fit that never scores 1.0. Raises `TrainingError` when the dataset is
    too small or single-class, when the stratified split, which keeps a row
    of each class for validation, leaves training a class short, or when the
    checkpoint's parameters are not finite (the fit diverged), and
    `ValueError` for a label other than 0 or 1 or a non-finite feature.
    """
    cfg.validate()
    if len(dataset) < 10:
        raise TrainingError(f"need at least 10 samples, got {len(dataset)}")
    features = np.array([list(f) for f, _ in dataset], dtype=float)
    labels = [y for _, y in dataset]
    if not {0, 1}.issuperset(labels):
        bad = next(y for y in labels if y not in (0, 1))
        raise ValueError(f"label {bad!r} is not 0 or 1")
    labels = np.array(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("dataset must contain both classes (refusing degenerate retrain)")

    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite features in dataset")

    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _stratified_split(labels, cfg.val_fraction, rng)
    if len(train_idx) == 0:
        raise TrainingError(f"val_fraction {cfg.val_fraction} leaves no training rows "
                            f"of {len(labels)}")
    n_tr_pos = int(labels[train_idx].sum())
    if n_tr_pos in (0, len(train_idx)):  # the split keeps a row of each class for validation
        name, count = ("interference", n_pos) if n_tr_pos == 0 else ("clean", n_neg)
        raise TrainingError(f"val_fraction {cfg.val_fraction} leaves no {name} training "
                            f"rows of {count}")
    x = _normalize(features)
    x_tr, y_tr = x[train_idx], labels[train_idx].astype(float)
    x_va, y_va = x[val_idx], labels[val_idx]

    # inverse-frequency weights when the minority class is under 30%
    minority_frac = min(n_pos, n_neg) / len(labels)
    if minority_frac < 0.30:
        class_w = {0: len(labels) / (2.0 * n_neg), 1: len(labels) / (2.0 * n_pos)}
        weights_tr = np.array([class_w[int(y)] for y in y_tr])
    else:
        weights_tr = np.ones(len(y_tr))

    # rows of N_PARAMS: theta (the model's views); adam holds Adam's m and v, then
    # g and g**2, which one multiply by scale's rows (b1, b2, 1 - b1, 1 - b2) updates;
    # corr holds each step of an epoch's (1 - b1**t, 1 - b2**t), one value per row,
    # so no step broadcasts
    theta, adam = _init_params(cfg.seed), np.zeros((4, N_PARAMS))
    mv, gg, (g, g_sq) = adam[:2], adam[2:], adam[2:]
    beta1, beta2 = 0.9, 0.999
    lr, eps = np.array(float(cfg.learning_rate)), np.array(1e-8)
    scale = np.repeat([[beta1], [beta2], [1 - beta1], [1 - beta2]], N_PARAMS, axis=1)

    best_theta, best_acc, best_epoch = theta.copy(), -1.0, 0
    epoch_loss: list[float] = []
    epoch_val_acc: list[float] = []
    # one workspace per fit: the epoch's rows, weights and logits, each step's views
    # and bias corrections, and the validation rows' one step
    n_tr, bs = len(y_tr), cfg.batch_size
    xe, (ye, swe, z_tr) = np.empty((n_tr, x.shape[1])), np.empty((3, n_tr))
    corr = np.empty((-(-n_tr // bs), 2, N_PARAMS))
    steps = list(zip(((ye[a:a + bs], swe[a:a + bs]) for a in range(0, n_tr, bs)),
                     _workspace(theta, g, xe, z_tr, bs), corr))
    val, = _workspace(theta, np.empty(N_PARAMS), x_va, np.empty(len(y_va)), len(y_va))
    # a diverging fit overflows to inf and NaN; the check after the loop refuses it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_tr)
            np.take(x_tr, order, axis=0, out=xe)
            np.take(y_tr, order, out=ye)
            np.take(weights_tr, order, out=swe)
            swe /= np.repeat(_batch_sums(swe, bs), bs)[:n_tr]  # sums to 1 per minibatch
            ts = range(epoch * len(corr) + 1, (epoch + 1) * len(corr) + 1)
            corr.swapaxes(0, 1)[...] = np.array(  # Python float pow
                [[1 - b ** t for t in ts] for b in (beta1, beta2)])[..., None]
            for (yb, swb), ws, c in steps:
                _backprop(ws, yb, swb)
                # in place, in this operation order (it fixes the bits):
                # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
                # theta -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
                np.multiply(g, g, out=g_sq)
                adam *= scale
                mv += gg
                np.divide(mv, c, out=gg)
                g *= lr
                np.sqrt(g_sq, out=g_sq)
                g_sq += eps
                g /= g_sq
                theta -= g
            probs = _backprop(val, None, None)
            val_acc = float(np.mean((probs >= MlpModel.threshold).astype(int) == y_va))
            epoch_loss.append(float(np.mean(_batch_sums(_bce(z_tr, ye, swe), bs))))
            epoch_val_acc.append(val_acc)
            if val_acc > best_acc:
                best_acc = val_acc
                best_theta = theta.copy()
                best_epoch = epoch
                if best_acc == 1.0:  # no later epoch can score above it and replace it
                    break
    if not np.all(np.isfinite(best_theta)):
        raise TrainingError(f"fit diverged: parameters of epoch {best_epoch} are not finite "
                            f"at learning_rate {cfg.learning_rate}")

    report = TrainReport(epoch_loss=epoch_loss, epoch_val_accuracy=epoch_val_acc,
                         best_epoch=best_epoch, val_accuracy=best_acc,
                         n_train=len(y_tr), n_val=len(y_va),
                         class_counts={"clean": n_neg, "interference": n_pos})
    return MlpModel(*_unpack(best_theta), version=version), report


# ---- serialization ----

def save(model: MlpModel, path: str | Path) -> None:
    """Write `model` as JSON, through `store.atomic_writer` so a failure writes nothing."""
    doc = {
        "format": MODEL_FORMAT,
        "layer_dims": LAYER_DIMS,
        "activations": ACTIVATIONS,
        "normalization": NORMALIZATION,
        "threshold": model.threshold,
        "version": model.version,
        "weights": [w.ravel().tolist() for w in model.weights],  # row-major
        "biases": [b.tolist() for b in model.biases],
    }
    with atomic_writer(Path(path)) as f:
        json.dump(doc, f, indent=1)


def _numbers(path: str | Path, field: str, values: object, size: int) -> np.ndarray:
    """size numbers as floats, each read by `numbers.real`; anything else raises ModelError."""
    if type(values) is not list:
        raise ModelError(f"model file {path}: {field} must hold JSON numbers only")
    try:
        floats = [real(v, field) for v in values]
    except ValueError as exc:
        raise ModelError(f"model file {path}: {field} must hold JSON numbers only: {exc}") from exc
    if len(floats) != size:
        raise DimensionError(f"model file {path}: {field} has {len(floats)} numbers, not {size}")
    return np.array(floats)


def load(path: str | Path) -> MlpModel:
    """Read a model file; a file that is not a valid MODEL_FORMAT model raises ModelError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ModelError(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"model file {path}: top level is {type(doc).__name__}, not an object")
    if doc.get("format") != MODEL_FORMAT:
        raise ModelError(
            f"model file {path}: format {doc.get('format')!r}, expected {MODEL_FORMAT!r}")
    try:
        version = whole(doc.get("version"), "version")
        if version < 0:
            raise ValueError(f"version {version} is below 0")
    except ValueError as exc:
        raise VersionFieldError(f"model file {path}: {exc}") from exc
    if doc.get("layer_dims") != LAYER_DIMS:
        raise DimensionError(
            f"model file {path}: layer_dims {doc.get('layer_dims')} != {LAYER_DIMS}")
    acts = doc.get("activations")
    if acts != ACTIVATIONS:
        raise ActivationError(f"model file {path}: unsupported activations {acts}")
    if doc.get("normalization") != NORMALIZATION:
        raise ModelError(f"model file {path}: normalization {doc.get('normalization')!r}, "
                         f"expected {NORMALIZATION!r}")
    try:
        for field in ("weights", "biases"):  # one entry per layer, neither more nor less
            if type(doc[field]) is not list or len(doc[field]) != len(LAYER_DIMS) - 1:
                raise ModelError(f"model file {path}: {field} must be a JSON list "
                                 f"of {len(LAYER_DIMS) - 1} layers")
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])):
            w = _numbers(path, f"layer {i} weights", doc["weights"][i], fan_in * fan_out)
            weights.append(w.reshape(fan_in, fan_out))
            biases.append(_numbers(path, f"layer {i} biases", doc["biases"][i], fan_out))
        threshold, = _numbers(path, "threshold", [doc["threshold"]], 1).tolist()
    except KeyError as exc:
        raise ModelError(f"model file {path} lacks the required {exc} field") from exc
    try:
        return MlpModel(weights=weights, biases=biases, threshold=threshold,
                        version=version)
    except ModelError as exc:  # non-finite parameters, threshold outside (0,1)
        raise ModelError(f"model file {path}: {exc}") from exc
