"""Closed-loop adaptive jamming detection over simulated uplink KPI telemetry."""

from .scenarios import (ChannelParams, FeatureSample, KpiSample, ScenarioSchedule,
                        ScenarioSpec, load_schedule, schedule_from_ids, sinr_db,
                        synth_stream)
from .store import (DetectionRecord, LabeledSample, TelemetryStore)
from .labeler import LabelerConfig, label_window, run_labeler
from .mlp import MlpModel, TrainConfig, TrainReport, forward, load, save, train
from .detector import DetectorXapp, SwapReceipt
from .manager import ClosedLoop, DriftReport, LoopConfig, ModelRegistry, monitor

__version__ = "0.1.0"
