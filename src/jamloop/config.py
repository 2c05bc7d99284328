"""Global YAML config: sections engine, labeler, mlp, loop, experiment."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import yaml

from .labeler import LabelerConfig
from .manager import LoopConfig
from .mlp import TrainConfig
from .scenarios import SCENARIO_CATALOG, ChannelParams


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class ExperimentSection:
    samples_per_scenario: int = 300
    passes: int = 2
    baseline_train_entries: int = 6

    def validate(self) -> None:
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.samples_per_scenario < 1:
            raise ValueError("samples_per_scenario must be >= 1")
        n_entries = len(SCENARIO_CATALOG) * self.passes
        if not 1 <= self.baseline_train_entries <= n_entries:
            raise ValueError(f"baseline_train_entries must be in 1..{n_entries} "
                             f"(the schedule's entries)")


@dataclasses.dataclass
class GlobalConfig:
    engine: ChannelParams
    labeler: LabelerConfig
    loop: LoopConfig
    experiment: ExperimentSection


SECTIONS = ("engine", "labeler", "mlp", "loop", "experiment")


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name)
    if section is None:  # absent, or present and empty (`loop:` alone)
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return section


def _check_type(name: str, key: str, value, default) -> None:
    # a key takes its default's type; an int also serves for a float, a bool for neither
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config section {name!r}: {key} must be {kind.__name__}, "
                          f"got {value!r}")


def _build(cls, section: dict, name: str):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"config section {name!r}: unknown key(s) {sorted(unknown)}")
    for key, value in section.items():
        _check_type(name, key, value, defaults[key])
    obj = cls(**section)
    try:
        getattr(obj, "validate", lambda: None)()
    except ValueError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc
    return obj


def load_config(path: str | Path | None) -> GlobalConfig:
    doc: dict = {}
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must be a mapping")
        doc = raw
    unknown = set(doc) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s) {sorted(unknown)}")
    sections = {name: _section(doc, name) for name in SECTIONS}
    if "train" in sections["loop"]:
        raise ConfigError("loop.train is set from the mlp section; do not nest it")
    loop = _build(LoopConfig, sections["loop"], "loop")
    loop.train = _build(TrainConfig, sections["mlp"], "mlp")
    return GlobalConfig(engine=_build(ChannelParams, sections["engine"], "engine"),
                        labeler=_build(LabelerConfig, sections["labeler"], "labeler"),
                        loop=loop,
                        experiment=_build(ExperimentSection, sections["experiment"],
                                          "experiment"))
