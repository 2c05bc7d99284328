"""Global YAML config: sections engine, labeler, mlp, loop, experiment."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import yaml

from .labeler import LabelerConfig
from .manager import LoopConfig
from .mlp import TrainConfig
from .scenarios import ChannelParams


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class ExperimentSection:
    samples_per_scenario: int = 300
    passes: int = 2
    baseline_train_entries: int = 6


@dataclasses.dataclass
class GlobalConfig:
    engine: ChannelParams
    labeler: LabelerConfig
    loop: LoopConfig
    experiment: ExperimentSection


def _build(cls, section: dict, name: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown key(s) {sorted(unknown)}")
    return cls(**section)


def load_config(path: str | Path | None) -> GlobalConfig:
    doc: dict = {}
    if path is not None:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must be a mapping")
        doc = raw
    unknown = set(doc) - {"engine", "labeler", "mlp", "loop", "experiment"}
    if unknown:
        raise ConfigError(f"unknown config section(s) {sorted(unknown)}")
    engine = _build(ChannelParams, doc.get("engine", {}), "engine")
    engine.validate()
    labeler = _build(LabelerConfig, doc.get("labeler", {}), "labeler")
    labeler.validate()
    train = _build(TrainConfig, doc.get("mlp", {}), "mlp")
    train.validate()
    loop_section = doc.get("loop", {})
    if "train" in loop_section:
        raise ConfigError("loop.train is set from the mlp section; do not nest it")
    loop = _build(LoopConfig, loop_section, "loop")
    loop.train = train
    experiment = _build(ExperimentSection, doc.get("experiment", {}), "experiment")
    return GlobalConfig(engine=engine, labeler=labeler, loop=loop, experiment=experiment)
