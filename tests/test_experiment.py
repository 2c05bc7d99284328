import dataclasses

import pytest

from jamloop import experiment, mlp
from jamloop.experiment import (ExperimentError, ExperimentReport, ScenarioLabelAccuracy,
                                WindowAccuracy, default_experiment_config, default_window_map,
                                write_artifacts)
from jamloop.labeler import LabelerConfig, run_labeler
from jamloop.manager import labeled_dataset
from jamloop.scenarios import schedule_from_ids, synth_stream
from jamloop.store import TelemetryStore


def window_map(schedule):
    return [(w.label, w.scenario_positions) for w in default_window_map(schedule)]


class TestDefaultWindowMap:
    def test_default_schedule_pairs_each_pass(self):
        schedule = default_experiment_config(seed=1, samples_per_scenario=10).schedule
        expected = [(f"{p + 1}{letter}", [18 * p + 2 * k, 18 * p + 2 * k + 1])
                    for p in range(2) for k, letter in enumerate("abcdefghi")]
        assert window_map(schedule) == expected

    def test_odd_pass_ends_in_a_single_entry(self):
        schedule = schedule_from_ids([1, 2, 3, 1, 2], seed=1, duration_samples=10)
        assert window_map(schedule) == [("1a", [0, 1]), ("1b", [2]), ("2a", [3, 4])]


def test_unwritable_report_leaves_earlier_artifacts_whole(tmp_path):
    report = ExperimentReport(
        windows=[WindowAccuracy("1a", [1, 2], 0, 19, None, 0.5)],
        labeler_by_scenario=[ScenarioLabelAccuracy(0, 1, "ON", 0.75, 0.8)],
        first_deploy_seq=None, stream_digest="ab" * 32, n_samples=20,
        transcript=[{"event": "drift_check"}], runtime_s=0.5)
    write_artifacts(report, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(before) == 6
    later = dataclasses.replace(
        report, windows=[WindowAccuracy("1a", [1, 2], 0, 39, 0.9, 0.6)], n_samples=40,
        transcript=[{"event": "drift_check"}, {"event": "retrain", "model": object()}])
    with pytest.raises(TypeError):  # json cannot write an object()
        write_artifacts(later, tmp_path)
    # every earlier file byte for byte, and no temporary file
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("seed", [7, 11])
def test_scores_match_the_loop_store_records(tmp_path, monkeypatch, seed):
    # the arm B scores read the store's columns; they must equal the scores of
    # seq -> value dicts built from the same store's records
    stores = []

    class KeptStoreLoop(experiment.ClosedLoop):
        def __init__(self, store, *args, **kwargs):
            super().__init__(store, *args, **kwargs)
            stores.append(store)

    monkeypatch.setattr(experiment, "ClosedLoop", KeptStoreLoop)
    cfg = default_experiment_config(seed=seed, samples_per_scenario=100)
    report = experiment.run_experiment(cfg, tmp_path / "models")
    store, = stores
    samples = store.window("kpi")
    verdicts = {d.seq: d.verdict for d in store.window("detections")}
    labels = {lab.seq: lab.label for lab in store.window("labels")}
    assert verdicts and len(labels) == len(samples) == report.n_samples
    for w in report.windows:
        assert w.loop_accuracy == experiment._score(verdicts, samples, w.start_seq, w.end_seq)
    segments = synth_stream(cfg.schedule, cfg.channel, lambda s: None).segments
    halfwidth = cfg.labeler.smoothing_halfwidth
    assert len(report.labeler_by_scenario) == len(segments)
    for row, seg in zip(report.labeler_by_scenario, segments):
        assert row.accuracy == experiment._score(labels, samples, seg.start_seq, seg.end_seq)
        assert row.accuracy_transition_excluded == experiment._score(
            labels, samples, seg.start_seq + halfwidth, seg.end_seq - halfwidth)


@pytest.mark.parametrize("seed,samples_per_scenario,passes,window_size",
                         [(7, 300, 2, 100), (11, 300, 2, 100), (7, 20, 1, 16)],
                         ids=["seed7", "seed11", "seed7_16_sample_windows"])
def test_static_arm_trains_on_the_offline_labels(tmp_path, monkeypatch, seed,
                                                 samples_per_scenario, passes, window_size):
    # the static arm's rows are those `labeled_dataset` builds over what
    # `run_labeler` writes for the leading samples, row for row and bit for bit
    fitted = []

    def capture(dataset, cfg, version):
        fitted.append(dataset)
        raise mlp.TrainingError("captured")

    monkeypatch.setattr(mlp, "train", capture)
    cfg = default_experiment_config(seed, samples_per_scenario, passes)
    cfg.labeler = LabelerConfig(window_size=window_size)
    with pytest.raises(ExperimentError, match="static baseline training failed: captured"):
        experiment.run_experiment(cfg, tmp_path / "models")
    store, samples = TelemetryStore(), []
    segments = synth_stream(cfg.schedule, cfg.channel, samples.append).segments
    train_end_seq = segments[cfg.baseline_train_entries - 1].end_seq
    for s in samples:
        if s.seq <= train_end_seq:
            store.append("kpi", s)
    run_labeler(store, cfg.labeler)
    _, train_samples, labels = store.join("kpi")
    want = labeled_dataset(train_samples, labels)
    assert len(want) == cfg.baseline_train_entries * samples_per_scenario
    assert len({y for _, y in want}) == 2
    assert [repr(row) for row in fitted[0]] == [repr(row) for row in want]
    assert len(fitted) == 1
