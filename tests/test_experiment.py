from jamloop.experiment import default_experiment_config, default_window_map
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
