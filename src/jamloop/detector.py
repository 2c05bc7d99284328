"""Near-real-time inference xApp with atomic zero-downtime model hot-swap.

The deployed model lives in a single slot, and a model's version is its
own: `MlpModel` is frozen, so no field changes after construction.
Inference reads the slot reference once per call, so every detection, and
every batch of them, is produced by exactly one complete model and carries
that model's version; swaps replace the reference atomically and never
block the inference hot path.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .mlp import MlpModel, forward, forward_batch
from .scenarios import FeatureSample
from .store import LABEL_CLEAN, LABEL_INTERFERENCE, DetectionRecord


class DetectorError(Exception):
    pass


class NoModelDeployedError(DetectorError):
    pass


class StaleVersionError(DetectorError):
    pass


@dataclass(frozen=True)
class SwapReceipt:
    old_version: int | None
    new_version: int
    seq_boundary: int


# a DetectionRecord from one tuple of its fields, without the generated __new__'s frame
_detection = partial(tuple.__new__, DetectionRecord)
# a verdict by whether its probability reaches the threshold, as a 0/1 index
_VERDICTS = np.array([LABEL_CLEAN, LABEL_INTERFERENCE], dtype=object)


def _not_features(sample) -> DetectorError:
    # a KpiSample would carry its ground truth into the xApp
    return DetectorError(f"the detector takes FeatureSample views (KpiSample.public()), "
                         f"got {type(sample).__name__}")


class DetectorXapp:
    """Per-sample interference inference over truth-blind feature samples."""

    def __init__(self) -> None:
        self._slot: MlpModel | None = None
        self._swap_lock = threading.Lock()
        self._last_seq = -1

    @property
    def deployed_version(self) -> int | None:
        model = self._slot
        return model.version if model else None

    def swap_model(self, new: MlpModel) -> SwapReceipt:
        """Atomically replace the deployed model; stale versions are rejected."""
        with self._swap_lock:
            current = self._slot
            if current is not None and new.version <= current.version:
                raise StaleVersionError(
                    f"version {new.version} not newer than deployed {current.version}")
            boundary = self._last_seq
            self._slot = new
            return SwapReceipt(old_version=current.version if current else None,
                               new_version=new.version, seq_boundary=boundary)

    def infer(self, sample: FeatureSample) -> DetectionRecord:
        """Detection of one sample; any type but FeatureSample raises `DetectorError`."""
        model = self._slot  # single read: prob and version come from one model
        if model is None:
            raise NoModelDeployedError("no model deployed; deploy an initial model first")
        if type(sample) is not FeatureSample:
            raise _not_features(sample)
        seq, _, snr_db, mcs, bler = sample
        prob = forward(model, (snr_db, bler, mcs))
        self._last_seq = seq
        return _detection((seq, prob,
                           LABEL_INTERFERENCE if prob >= model.threshold else LABEL_CLEAN,
                           model.version))

    def score_batch(self, samples: Sequence[FeatureSample]
                    ) -> tuple[Sequence[int], list[float], list[str], int]:
        """Detections of `samples`, in order, all from one model, as columns:
        their seqs, probs, verdicts and the model's version. Each row equals
        `infer`'s record, `prob` bits included.

        One `forward_batch` scores them all. A sample of any type but
        FeatureSample raises `DetectorError` before any is scored.
        """
        model = self._slot  # single read: the whole batch sees one model
        if model is None:
            raise NoModelDeployedError("no model deployed; deploy an initial model first")
        if not samples:
            return (), [], [], model.version
        for s in samples:
            if type(s) is not FeatureSample:
                raise _not_features(s)
        seqs, _, snr_db, mcs, bler = zip(*samples)
        probs = forward_batch(model, np.array([snr_db, bler, mcs], dtype=float).T)
        verdicts = _VERDICTS[(probs >= model.threshold).astype(int)].tolist()
        self._last_seq = seqs[-1]
        return seqs, probs.tolist(), verdicts, model.version
