import dataclasses

import pytest

from jamloop.experiment import (ExperimentReport, ScenarioLabelAccuracy, WindowAccuracy,
                                default_experiment_config, default_window_map,
                                write_artifacts)
from jamloop.scenarios import schedule_from_ids


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
