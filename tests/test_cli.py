import csv
import dataclasses
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from jamloop import mlp
from jamloop.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from jamloop.config import load_config
from jamloop.experiment import ARTIFACTS
from jamloop.manager import ModelRegistry


def write_schedule(path, entries):
    lines = ["entries:"]
    for e in entries:
        if isinstance(e, int):
            lines.append(f"  - {e}")
        else:
            lines.append("  - " + json.dumps(e))
    path.write_text("\n".join(lines) + "\n")
    return path


def simulate(tmp_path, entries, seed=1, with_truth=True, out=None):
    sched = write_schedule(tmp_path / "schedule.yaml", entries)
    out = out or (tmp_path / "out")
    argv = ["--seed", str(seed), "--out", str(out), "simulate",
            "--schedule", str(sched)]
    if with_truth:
        argv.append("--with-truth")
    code = main(argv)
    return code, out / "trace.jsonl"


class TestSimulate:
    def test_trace_line_count_matches_schedule(self, tmp_path):
        code, trace = simulate(
            tmp_path, [{"id": 2, "duration_samples": 50},
                       {"id": 1, "duration_samples": 50}])
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert len(lines) == 100
        first = json.loads(lines[0])
        assert set(first) == {"seq", "ts_ms", "snr_db", "mcs", "bler", "truth"}

    def test_full_catalog_trace(self, tmp_path):
        code, trace = simulate(tmp_path, list(range(1, 19)))
        assert code == EXIT_OK
        assert len(trace.read_text().splitlines()) == 18 * 300

    def test_without_truth_omits_field(self, tmp_path):
        code, trace = simulate(tmp_path, [2], with_truth=False)
        assert code == EXIT_OK
        assert "truth" not in json.loads(trace.read_text().splitlines()[0])

    def test_same_seed_byte_identical(self, tmp_path):
        _, t1 = simulate(tmp_path, [2, 1], seed=9, out=tmp_path / "a")
        _, t2 = simulate(tmp_path, [2, 1], seed=9, out=tmp_path / "b")
        assert t1.read_bytes() == t2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _, t1 = simulate(tmp_path, [2], seed=1, out=tmp_path / "a")
        _, t2 = simulate(tmp_path, [2], seed=2, out=tmp_path / "b")
        assert t1.read_bytes() != t2.read_bytes()

    def test_invalid_schedule_exits_2(self, tmp_path):
        sched = tmp_path / "bad.yaml"
        sched.write_text("entries:\n  - 99\n")
        code = main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)])
        assert code == EXIT_USAGE

    def test_missing_entries_key_exits_2(self, tmp_path):
        sched = tmp_path / "bad.yaml"
        sched.write_text("nothing: here\n")
        assert main(["simulate", "--schedule", str(sched)]) == EXIT_USAGE

    @pytest.mark.parametrize("entry", [
        {"id": 2, "duration_samples": "abc"},
        {"event": "ON", "interference_db": -8.0, "noise_amplitude": 0.1,
         "duration_samples": "abc"},
        {"event": "ON", "interference_db": "abc", "noise_amplitude": 0.1},
        {"event": "ON", "interference_db": -8.0, "noise_amplitude": "abc"},
        {"id": [1]},
        {"id": "2"},
        {"id": 2, "duration_samples": "300"},
        {"event": "ON", "interference_db": "-8", "noise_amplitude": 0.1},
    ], ids=["catalog_duration", "custom_duration", "interference_db", "noise_amplitude",
            "catalog_id", "quoted_catalog_id", "quoted_duration", "quoted_interference_db"])
    def test_non_numeric_entry_value_exits_2(self, tmp_path, capsys, entry):
        sched = write_schedule(tmp_path / "bad.yaml", [2, entry])
        assert main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)]) == EXIT_USAGE
        assert "entry 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"event": "ON", "interference_db": -8.0, "noise_amplitude": 0.1, "duration_sample": 500},
        {"id": 2, "duration_sample": 500},
    ], ids=["custom", "catalog"])
    def test_unknown_entry_field_exits_2(self, tmp_path, capsys, entry):
        # a misspelled duration once ran the default 300 samples, or was reported
        # as a missing 'event'
        sched = write_schedule(tmp_path / "bad.yaml", [2, entry])
        assert main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)]) == EXIT_USAGE
        assert "entry 1: unknown field(s) ['duration_sample']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trace.jsonl").exists()

    def test_missing_schedule_exits_2(self, tmp_path, capsys):
        sched = tmp_path / "nope.yaml"
        assert main(["simulate", "--schedule", str(sched)]) == EXIT_USAGE
        assert f"{sched} not found" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"id": 2, "duration_samples": 2.7},
        {"id": 4.9, "event": "OFF", "interference_db": -100.0, "noise_amplitude": 0.15},
        {"event": "ON", "interference_db": -8.0, "noise_amplitude": 0.1,
         "duration_samples": 50.5},
    ], ids=["catalog_duration", "custom_id", "custom_duration"])
    def test_fractional_entry_value_exits_2(self, tmp_path, capsys, entry):
        sched = write_schedule(tmp_path / "bad.yaml", [2, entry])
        assert main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "entry 1: " in err
        assert "is not a whole number" in err
        assert not (tmp_path / "o" / "trace.jsonl").exists()

    @pytest.mark.parametrize("entry", [
        True,
        {"id": True},
        {"id": True, "duration_samples": 20},
        {"id": 2, "duration_samples": True},
        {"id": True, "event": "ON", "interference_db": -8.0, "noise_amplitude": 0.1},
        {"event": "ON", "interference_db": True, "noise_amplitude": 0.1},
        {"event": "ON", "interference_db": -8.0, "noise_amplitude": True},
        {"event": "ON", "interference_db": -8.0, "noise_amplitude": 0.1,
         "duration_samples": True},
    ], ids=["bare_id", "catalog_id", "catalog_id_with_duration", "catalog_duration",
            "custom_id", "interference_db", "noise_amplitude", "custom_duration"])
    def test_boolean_entry_value_exits_2(self, tmp_path, capsys, entry):
        sched = write_schedule(tmp_path / "bad.yaml", [2, entry])
        assert main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert re.search(r"entry 1: .*(True|got bool)", err), err
        assert not (tmp_path / "o" / "trace.jsonl").exists()

    @pytest.mark.parametrize("key,value", [
        ("interference_db", ".nan"), ("interference_db", ".inf"), ("interference_db", "-.inf"),
        ("noise_amplitude", ".inf"), ("noise_amplitude", ".nan")])
    def test_non_finite_entry_value_exits_2(self, tmp_path, capsys, key, value):
        entry = {"event": "ON", "interference_db": "-8.0", "noise_amplitude": "0.1", key: value}
        sched = tmp_path / "bad.yaml"  # YAML, not JSON: .nan and .inf are floats
        sched.write_text("entries:\n  - 2\n  - {"
                         + ", ".join(f"{k}: {v}" for k, v in entry.items()) + "}\n")
        assert main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)]) == EXIT_USAGE
        nonfinite = {".nan": "nan", ".inf": "inf", "-.inf": "-inf"}[value]
        assert f"entry 1: {key} {nonfinite} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trace.jsonl").exists()

    @pytest.mark.parametrize("entry", [
        {"id": 2, "duration_samples": 20.0},
        {"id": 4.0, "event": "OFF", "interference_db": -100.0, "noise_amplitude": 0.15,
         "duration_samples": 30},
        {"id": 3.0, "duration_samples": 300},
    ], ids=["catalog_duration", "custom_id", "catalog_id"])
    def test_whole_float_entry_value_exits_2(self, tmp_path, capsys, entry):
        # a whole number is an integer: 20.0 is a float, as in every input file
        sched = write_schedule(tmp_path / "bad.yaml", [2, entry])
        assert main(["--out", str(tmp_path / "o"), "simulate",
                     "--schedule", str(sched)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "entry 1: " in err and "is not a whole number" in err
        assert not (tmp_path / "o" / "trace.jsonl").exists()

    def test_directory_schedule_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--schedule", str(tmp_path)]) == EXIT_USAGE
        assert f"{tmp_path} is not a file" in capsys.readouterr().err

    def test_failed_write_leaves_no_partial_trace(self, tmp_path, monkeypatch):
        from jamloop import cli
        entries = [{"id": 2, "duration_samples": 250}, {"id": 1, "duration_samples": 250}]
        out = tmp_path / "out"
        trace = out / "trace.jsonl"

        def failing_at(k):
            def trace_line(sample, *args):
                if sample.seq == k:
                    raise RuntimeError(f"sink failed at sample {k}")
                return real_trace_line(sample, *args)
            return trace_line

        real_trace_line = cli.trace_line
        monkeypatch.setattr(cli, "trace_line", failing_at(300))
        with pytest.raises(RuntimeError, match="sample 300"):
            simulate(tmp_path, entries)
        assert not trace.exists()
        assert list(out.iterdir()) == []

        monkeypatch.undo()
        assert simulate(tmp_path, entries)[0] == EXIT_OK
        before = trace.read_bytes()
        monkeypatch.setattr(cli, "trace_line", failing_at(0))
        with pytest.raises(RuntimeError, match="sample 0"):
            simulate(tmp_path, entries, seed=2)
        assert trace.read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["trace.jsonl"]

    def test_out_of_domain_entry_warns_but_runs(self, tmp_path, capsys):
        code, trace = simulate(
            tmp_path, [{"id": 50, "event": "ON", "interference_db": -3.0,
                        "noise_amplitude": 0.9, "duration_samples": 10}])
        assert code == EXIT_OK
        assert "warning" in capsys.readouterr().err
        assert len(trace.read_text().splitlines()) == 10


class TestEvalLabeler:
    def test_segment_rows_written(self, tmp_path):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 150},
                                       {"id": 1, "duration_samples": 150}])
        out = tmp_path / "out"
        code = main(["--out", str(out), "eval-labeler", "--trace", str(trace)])
        assert code == EXIT_OK
        with (out / "labeler_accuracy.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2  # one truth flip, two segments
        for row in rows:
            acc = float(row["accuracy"])
            acc_ex = float(row["accuracy_transition_excluded"])
            assert 0.0 <= acc <= 1.0
            assert 0.0 <= acc_ex <= 1.0
        # strongly separated pair: near-perfect away from transitions
        assert all(float(r["accuracy_transition_excluded"]) >= 0.95 for r in rows)

    def test_truthless_trace_fails(self, tmp_path):
        _, trace = simulate(tmp_path, [2], with_truth=False)
        code = main(["--out", str(tmp_path / "o"), "eval-labeler",
                     "--trace", str(trace)])
        assert code == EXIT_FAILURE

    def test_empty_trace_fails(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        code = main(["--out", str(tmp_path / "o"), "eval-labeler",
                     "--trace", str(trace)])
        assert code == EXIT_FAILURE

    def test_corrupt_trace_exits_2(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"seq": 0}\n')
        code = main(["eval-labeler", "--trace", str(trace)])
        assert code == EXIT_USAGE

    def test_leading_blank_line_read_past(self, tmp_path):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 150},
                                       {"id": 1, "duration_samples": 150}])
        trace.write_text("\n" + trace.read_text())
        out = tmp_path / "o"
        assert main(["--out", str(out), "eval-labeler", "--trace", str(trace)]) == EXIT_OK
        assert len((out / "labeler_accuracy.csv").read_text().splitlines()) == 3

    def test_trace_not_starting_at_seq_0_scored_by_seq(self, tmp_path):
        # scenario 13 is out of the labeler's reach, so it reads CLEAN throughout
        _, trace = simulate(tmp_path, [{"id": sid, "duration_samples": 300}
                                       for sid in (2, 13, 2)], seed=3)
        trace.write_text("".join(trace.read_text().splitlines(keepends=True)[100:]))
        out = tmp_path / "o"
        assert main(["--out", str(out), "eval-labeler", "--trace", str(trace)]) == EXIT_OK
        with (out / "labeler_accuracy.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert [(r["event"], r["start_seq"], r["end_seq"]) for r in rows] == [
            ("OFF", "100", "299"), ("ON", "300", "599"), ("OFF", "600", "899")]
        assert [float(r["accuracy"]) for r in rows] == [1.0, 0.0, 1.0]
        assert [float(r["accuracy_transition_excluded"]) for r in rows] == [1.0, 0.0, 1.0]

    def test_seq_order_not_file_order_decides(self, tmp_path):
        _, trace = simulate(tmp_path, [{"id": sid, "duration_samples": 100}
                                       for sid in range(1, 19)], seed=5)
        lines = trace.read_text().splitlines(keepends=True)
        shuffled = lines[:]
        random.Random(5).shuffle(shuffled)
        written = []
        for name, order in (("in_order", lines), ("shuffled", shuffled),
                            ("reversed", lines[::-1])):
            trace.write_text("".join(order))
            out = tmp_path / name
            assert main(["--out", str(out), "eval-labeler", "--trace", str(trace)]) == EXIT_OK
            written.append((out / "labeler_accuracy.csv").read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]

    def test_failed_write_leaves_no_partial_csv(self, tmp_path, monkeypatch):
        from jamloop import cli
        _, trace = simulate(tmp_path, [{"id": sid, "duration_samples": 100}
                                       for sid in (2, 1, 2, 1)])
        out = tmp_path / "o"
        args = ["--out", str(out), "eval-labeler", "--trace", str(trace)]

        class Unreadable:
            @property
            def accuracy(self):
                raise RuntimeError("row 2 failed")

        def failing(*args, **kwargs):
            rows = real_scoring(*args, **kwargs)
            return rows[:2] + [Unreadable()] + rows[3:]

        real_scoring = cli.labeler_accuracy_by_scenario
        monkeypatch.setattr(cli, "labeler_accuracy_by_scenario", failing)
        with pytest.raises(RuntimeError, match="row 2"):
            main(args)
        assert list(out.iterdir()) == []

        monkeypatch.undo()
        assert main(args) == EXIT_OK
        before = (out / "labeler_accuracy.csv").read_bytes()
        assert len(before.splitlines()) == 5
        monkeypatch.setattr(cli, "labeler_accuracy_by_scenario", failing)
        with pytest.raises(RuntimeError, match="row 2"):
            main(args)
        assert (out / "labeler_accuracy.csv").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["labeler_accuracy.csv"]

    def test_labeler_sees_only_snr_in_seq_order(self, tmp_path, monkeypatch):
        from jamloop import cli
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 150},
                                       {"id": 1, "duration_samples": 150}])
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[150:] + lines[:150]))
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real_label_stream(*args, **kwargs)

        real_label_stream = cli.label_stream
        monkeypatch.setattr(cli, "label_stream", spy)
        out = tmp_path / "o"
        assert main(["--out", str(out), "eval-labeler", "--trace", str(trace)]) == EXIT_OK
        (snr, window_size), kwargs = calls[0]
        assert len(calls) == 1 and kwargs == {}
        assert window_size == load_config(None).labeler.window_size
        assert type(snr) is np.ndarray and snr.ndim == 1 and snr.dtype == np.float64
        assert snr.tolist() == [json.loads(line)["snr_db"] for line in lines]


def bad_trace(tmp_path, line):
    """A one-sample trace followed by `line`, which is the trace's line 2."""
    _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 1}])
    trace.write_text(trace.read_text() + line + "\n")
    return trace


@pytest.mark.parametrize("command", ["eval-labeler", "replay"])
class TestMalformedTrace:
    def invoke(self, tmp_path, command, trace):
        argv = ["--out", str(tmp_path / "o"), command, "--trace", str(trace)]
        if command == "replay":
            argv += ["--model", str(small_model(tmp_path))]
        return main(argv)

    @pytest.mark.parametrize("line", ["3", "[1, 2]"])
    def test_non_object_line_exits_2(self, tmp_path, capsys, command, line):
        trace = bad_trace(tmp_path, line)
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert f"{trace}:2: expected an object" in capsys.readouterr().err

    def test_unknown_column_exits_2(self, tmp_path, capsys, command):
        trace = bad_trace(tmp_path, '{"seq": 1, "ts_ms": 100, "snr_db": 1.0, "mcs": 2, '
                                    '"bler": 0.1, "truth": false, "rsrp": -90}')
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert "rsrp" in capsys.readouterr().err

    def test_missing_column_exits_2(self, tmp_path, capsys, command):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"seq": 0, "ts_ms": 0, "snr_db": 1.0, "mcs": 2}\n')
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert (f"{trace}:1: missing column(s) ['bler'] for stream 'kpi'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_repeated_seq_exits_2(self, tmp_path, capsys, command):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 50}])
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines + lines[:1]))
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert f"{trace}:51: seq 0 repeats an earlier line" in capsys.readouterr().err
        assert not (tmp_path / "o" / "detections.csv").exists()

    def test_missing_trace_exits_2(self, tmp_path, capsys, command):
        trace = tmp_path / "nope.jsonl"
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert f"{trace} not found" in capsys.readouterr().err

    def test_directory_trace_exits_2(self, tmp_path, capsys, command):
        trace = tmp_path / "trace_dir"
        trace.mkdir()
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert f"trace file {trace} is not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth_dropped", "truth_added"])
    def test_columns_unlike_first_row_exit_2(self, tmp_path, capsys, command, with_truth):
        # lines 101-400 drop the truth column the first line carries, or add it
        _, trace = simulate(tmp_path, [{"id": sid, "duration_samples": 200} for sid in (2, 1)],
                            with_truth=with_truth)
        lines = trace.read_text().splitlines(keepends=True)
        for i in range(100, 400):
            row = json.loads(lines[i])
            if with_truth:
                del row["truth"]
            else:
                row["truth"] = True
            lines[i] = json.dumps(row) + "\n"
        trace.write_text("".join(lines))
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{trace}:101: columns " in err
        assert "are not the first row's" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_snr_exits_2(self, tmp_path, capsys, command, value):
        trace = bad_trace(tmp_path, '{"seq": 1, "ts_ms": 100, "snr_db": ' + value
                          + ', "mcs": 2, "bler": 0.1, "truth": false}')
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{trace}:2: bad row" in err
        assert "snr_db" in err and "not finite" in err
        assert not (tmp_path / "o" / "detections.csv").exists()

    @pytest.mark.parametrize("field", ["seq", "ts_ms", "mcs"])
    def test_fractional_int_field_exits_2(self, tmp_path, capsys, command, field):
        row = {"seq": 1, "ts_ms": 100, "snr_db": 1.0, "mcs": 2, "bler": 0.1, "truth": False}
        row[field] += 0.7
        trace = bad_trace(tmp_path, json.dumps(row))
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{trace}:2: bad row" in err
        assert f"{field} {row[field]!r} is not a whole number" in err
        assert not (tmp_path / "o" / "detections.csv").exists()

    @pytest.mark.parametrize("field", ["seq", "ts_ms", "snr_db", "mcs", "bler"])
    def test_boolean_field_exits_2(self, tmp_path, capsys, command, field):
        row = {"seq": 1, "ts_ms": 100, "snr_db": 1.0, "mcs": 2, "bler": 0.1, "truth": False}
        row[field] = True
        trace = bad_trace(tmp_path, json.dumps(row))
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{trace}:2: bad row" in err
        assert f"{field} True is not a number" in err
        assert not (tmp_path / "o" / "detections.csv").exists()

    @pytest.mark.parametrize("field,value,problem", [
        ("seq", "1", "is not a number"), ("snr_db", "1.0", "is not a number"),
        ("bler", "0.1", "is not a number"), ("seq", 1.0, "is not a whole number")],
        ids=["quoted_seq", "quoted_snr_db", "quoted_bler", "whole_float_seq"])
    def test_field_not_a_number_exits_2(self, tmp_path, capsys, command, field, value,
                                        problem):
        row = {"seq": 1, "ts_ms": 100, "snr_db": 1.0, "mcs": 2, "bler": 0.1, "truth": False}
        row[field] = value
        trace = bad_trace(tmp_path, json.dumps(row))
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{trace}:2: bad row" in err
        assert f"{field} {value!r} {problem}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("truth", ["null", "[]", '"yes"', "0.5", "2"])
    def test_other_truth_value_exits_2(self, tmp_path, capsys, command, truth):
        trace = bad_trace(tmp_path, '{"seq": 1, "ts_ms": 100, "snr_db": 1.0, "mcs": 2, '
                                    '"bler": 0.1, "truth": ' + truth + '}')
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        assert f"{trace}:2: bad row" in capsys.readouterr().err
        assert not (tmp_path / "o" / "detections.csv").exists()

    @pytest.mark.parametrize("field", ['"mcs": 99, "bler": 0.1', '"mcs": 2, "bler": 1.5'])
    def test_invalid_kpi_record_exits_2(self, tmp_path, capsys, command, field):
        trace = bad_trace(tmp_path, '{"seq": 1, "ts_ms": 100, "snr_db": 1.0, '
                                    + field + ', "truth": false}')
        assert self.invoke(tmp_path, command, trace) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{trace}:2: bad row" in err
        assert "outside" in err
        assert not (tmp_path / "o" / "detections.csv").exists()


def small_model(tmp_path, version=1, bias=None):
    import numpy as np
    from jamloop.mlp import LAYER_DIMS, MlpModel
    weights = [np.zeros((a, b)) for a, b in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])]
    biases = [np.zeros(b) for b in LAYER_DIMS[1:]]
    if bias is not None:
        biases[-1][0] = bias
    model = MlpModel(weights=weights, biases=biases, version=version)
    path = tmp_path / f"v{version}.model"
    mlp.save(model, path)
    return path


def corrupt_model(tmp_path, edit):
    """A saved model file with one field edited; edit maps the JSON doc in place."""
    path = small_model(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


BAD_MODEL_EDITS = {
    "no_weights": lambda d: d.pop("weights"),
    "threshold_text": lambda d: d.update(threshold="abc"),
    "other_format": lambda d: d.update(format="jamloop-mlp-v9"),
    "version_fraction": lambda d: d.update(version=2.5),
    "version_bool": lambda d: d.update(version=True),
    "version_string": lambda d: d.update(version="4"),
    "version_negative": lambda d: d.update(version=-1),
    "threshold_quoted": lambda d: d.update(threshold="0.5"),
    "threshold_bool": lambda d: d.update(threshold=True),
    "weight_quoted": lambda d: d["weights"][0].__setitem__(0, "0.25"),
    "weight_bool": lambda d: d["weights"][0].__setitem__(0, True),
    "bias_bool": lambda d: d["biases"][0].__setitem__(0, False),
    "weights_object": lambda d: d.update(weights=dict(enumerate(d["weights"]))),
    "extra_bias_layer": lambda d: d["biases"].append(d["biases"][-1]),
    "weight_huge_int": lambda d: d["weights"][0].__setitem__(0, 10 ** 400),
    "normalization_changed": lambda d: d["normalization"].update(snr_shift=0.0),
}


class TestReplay:
    def test_detection_per_sample(self, tmp_path):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 40}])
        model_path = small_model(tmp_path, bias=-4.0)
        out = tmp_path / "out"
        code = main(["--out", str(out), "replay", "--trace", str(trace),
                     "--model", str(model_path)])
        assert code == EXIT_OK
        with (out / "detections.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 40
        assert all(r["verdict"] == "CLEAN" for r in rows)
        assert all(r["model_version"] == "1" for r in rows)

    def test_repeat_replay_byte_identical(self, tmp_path):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 500},
                                       {"id": 3, "duration_samples": 500}])
        model_path = tmp_path / "v1.model"
        mlp.save(mlp.init_model(3, version=1), model_path)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["--out", str(out), "replay", "--trace", str(trace),
                         "--model", str(model_path)]) == EXIT_OK
        first, second = ((out / "detections.csv").read_bytes() for out in outs)
        assert first.count(b"\n") == 1001
        assert first == second

    def test_failed_write_leaves_no_partial_detections(self, tmp_path, monkeypatch):
        from jamloop.detector import DetectorXapp
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 40}])
        model_path = small_model(tmp_path)
        out = tmp_path / "o"
        args = ["--out", str(out), "replay", "--trace", str(trace), "--model", str(model_path)]

        def failing_at(k):
            def infer(self, sample):
                if sample.seq == k:
                    raise RuntimeError(f"detector failed at sample {k}")
                return real_infer(self, sample)
            return infer

        real_infer = DetectorXapp.infer
        monkeypatch.setattr(DetectorXapp, "infer", failing_at(25))
        with pytest.raises(RuntimeError, match="sample 25"):
            main(args)
        assert list(out.iterdir()) == []

        monkeypatch.undo()
        assert main(args) == EXIT_OK
        before = (out / "detections.csv").read_bytes()
        monkeypatch.setattr(DetectorXapp, "infer", failing_at(0))
        with pytest.raises(RuntimeError, match="sample 0"):
            main(args)
        assert (out / "detections.csv").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["detections.csv"]

    def test_missing_model_exits_2(self, tmp_path):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 10}])
        code = main(["replay", "--trace", str(trace),
                     "--model", str(tmp_path / "nope.model")])
        assert code == EXIT_USAGE

    def test_directory_model_exits_2(self, tmp_path, capsys):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 10}])
        model_dir = tmp_path / "model_dir"
        model_dir.mkdir()
        code = main(["--out", str(tmp_path / "o"), "replay", "--trace", str(trace),
                     "--model", str(model_dir)])
        assert code == EXIT_USAGE
        assert f"model file {model_dir} is not a file" in capsys.readouterr().err
        assert not (tmp_path / "o" / "detections.csv").exists()

    @pytest.mark.parametrize("edit", BAD_MODEL_EDITS)
    def test_bad_model_file_exits_2(self, tmp_path, capsys, edit):
        _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 10}])
        model_path = corrupt_model(tmp_path, BAD_MODEL_EDITS[edit])
        code = main(["--out", str(tmp_path / "out"), "replay", "--trace", str(trace),
                     "--model", str(model_path)])
        assert code == EXIT_USAGE
        assert str(model_path) in capsys.readouterr().err
        assert not (tmp_path / "out" / "detections.csv").exists()

    def test_empty_trace_writes_header_only(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        model_path = small_model(tmp_path)
        out = tmp_path / "out"
        code = main(["--out", str(out), "replay", "--trace", str(trace),
                     "--model", str(model_path)])
        assert code == EXIT_OK
        assert (out / "detections.csv").read_text().strip() == "seq,prob,verdict,model_version"


class TestDeploy:
    def test_register_and_mark_deployed(self, tmp_path):
        model_path = small_model(tmp_path, version=1)
        out = tmp_path / "out"
        code = main(["--out", str(out), "deploy", "--model", str(model_path)])
        assert code == EXIT_OK
        journal = (out / "models" / "registry.jsonl").read_text().splitlines()

        def reject(name):  # NaN, Infinity: Python-only extensions, not JSON
            raise ValueError(f"non-JSON constant {name}")

        entry = json.loads(journal[0], parse_constant=reject)
        assert entry["version"] == 1
        assert entry["deployed"] is True
        assert entry["val_accuracy"] is None
        reloaded = ModelRegistry(out / "models")
        assert reloaded.entries[0].train_report == {"source": "manual deploy"}

    def test_stale_version_rejected(self, tmp_path):
        model_path = small_model(tmp_path, version=1)
        out = tmp_path / "out"
        assert main(["--out", str(out), "deploy", "--model", str(model_path)]) == EXIT_OK
        assert main(["--out", str(out), "deploy",
                     "--model", str(model_path)]) == EXIT_FAILURE

    def test_version_gap_rejected(self, tmp_path):
        model_path = small_model(tmp_path, version=5)
        code = main(["--out", str(tmp_path / "out"), "deploy",
                     "--model", str(model_path)])
        assert code == EXIT_FAILURE

    def test_missing_model_exits_2(self, tmp_path):
        code = main(["deploy", "--model", str(tmp_path / "nope.model")])
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("edit", BAD_MODEL_EDITS)
    def test_bad_model_file_exits_2(self, tmp_path, capsys, edit):
        model_path = corrupt_model(tmp_path, BAD_MODEL_EDITS[edit])
        out = tmp_path / "out"
        code = main(["--out", str(out), "deploy", "--model", str(model_path)])
        assert code == EXIT_USAGE
        assert str(model_path) in capsys.readouterr().err
        assert not (out / "models" / "registry.jsonl").exists()


class TestRunExperiment:
    def test_reduced_run_writes_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("experiment:\n  samples_per_scenario: 60\n  passes: 1\n"
                       "mlp:\n  epochs: 10\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--seed", "11", "--out", str(out),
                     "run-experiment"])
        assert code == EXIT_OK
        # cli checks these names up front, so they must be every file the run writes
        assert sorted(p.name for p in out.iterdir()) == sorted([*ARTIFACTS, "models"])
        with (out / "accuracy_by_window.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 9  # 18 scenarios paired into 9 windows
        report = json.loads((out / "report.json").read_text())
        assert report["n_samples"] == 18 * 60

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    def test_diverging_baseline_fit_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("mlp: {learning_rate: 1.0e+300}\n"
                       "experiment: {samples_per_scenario: 30, passes: 1}\n")
        code = main(["--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "out"),
                     "run-experiment"])
        assert code == EXIT_FAILURE
        assert "static baseline training failed: fit diverged" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("labeler:\n  bogus_knob: 3\n")
        assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE

    def test_unknown_config_section_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("mystery:\n  a: 1\n")
        assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE

    def test_yaml_syntax_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("loop: [\n")
        assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE
        assert f"cannot parse config file {cfg}" in capsys.readouterr().err

    def test_nested_loop_train_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("loop:\n  train:\n    epochs: 5\n")
        assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["simulate", "run-experiment"])
def test_non_finite_synthesized_snr_exits_2(tmp_path, capsys, command):
    # a jitter of 1e308 dB draws SNRs that overflow to +-inf in the first segment
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("engine: {snr_jitter_sigma_db: 1.0e+308}\n"
                   "experiment: {samples_per_scenario: 30, passes: 1}\n")
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), command]
    if command == "simulate":
        argv += ["--schedule", str(write_schedule(tmp_path / "s.yaml", [2, 1]))]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: entry 0 (scenario {2 if command == 'simulate' else 1}): a synthesized "
        f"SNR is not finite (snr_jitter_sigma_db 1e+308)\n")
    if command == "simulate":  # it makes its out directory before the stream starts
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "run-experiment"])
def test_synthesized_snr_past_bound_exits_2(tmp_path, capsys, command):
    # a jitter of 1e307 dB draws finite SNRs whose squares overflow
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("engine: {snr_jitter_sigma_db: 1.0e+307}\n"
                   "experiment: {samples_per_scenario: 20, passes: 1}\n")
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), command]
    if command == "simulate":
        argv += ["--schedule", str(write_schedule(tmp_path / "s.yaml",
                                                  [{"id": 1, "duration_samples": 2000}]))]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: entry 0 (scenario 1): a synthesized SNR is beyond +-1e+100 dB "
        "(snr_jitter_sigma_db 1e+307)\n")
    if command == "simulate":
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


def test_sinr_past_float_range_exits_2(tmp_path, capsys):
    code, trace = simulate(tmp_path, [{"event": "ON", "interference_db": 4000.0,
                                       "noise_amplitude": 0.1, "duration_samples": 50}])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "error: entry 0 (scenario 1): interference_db 4000.0 and noise_amplitude 0.1 "
        "give no finite SINR\n")
    assert list(trace.parent.iterdir()) == []


@pytest.mark.parametrize("section", ["engine", "labeler", "mlp", "loop", "experiment"])
class TestConfigSections:
    def test_empty_section_reads_as_defaults(self, tmp_path, section):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}:\n")
        assert load_config(cfg) == load_config(None)

    def test_non_mapping_section_exits_2(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}: 3\n")
        assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE
        assert f"config section {section!r} must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [("labeler", "window_size: 2"),
                                         ("loop", "monitor_window: 0"),
                                         ("labeler", "window_size: abc"),
                                         ("engine", "ewma_alpha: abc"),
                                         ("engine", "ewma_alpha: '0.1'"),
                                         ("mlp", "epochs: 0"),
                                         ("experiment", "passes: 0"),
                                         ("experiment", "samples_per_scenario: 0"),
                                         ("experiment", "baseline_train_entries: 0"),
                                         ("experiment", "baseline_train_entries: 99"),
                                         ("loop", "drift_threshold: .nan"),
                                         ("loop", "deploy_gate: .nan"),
                                         ("mlp", "learning_rate: .inf"),
                                         ("engine", "signal_power_db: .nan"),
                                         ("engine", "ewma_alpha: -.inf"),
                                         ("mlp", "learning_rate: 0.0"),
                                         ("mlp", "learning_rate: -0.01"),
                                         ("mlp", "seed: -1"),
                                         ("loop", "deploy_gate: -0.1"),
                                         ("loop", "deploy_gate: 1.5"),
                                         ("loop", "drift_threshold: -2"),
                                         ("engine", "snr_jitter_sigma_db: -0.5")])
def test_invalid_config_value_exits_2(tmp_path, capsys, section, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  {key}\n")
    assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE
    assert f"config section {section!r}: {key.split(':')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [("loop", "drift_threshold", 1.01),
                                               ("loop", "drift_threshold", 0.0),
                                               ("loop", "deploy_gate", 0.0),
                                               ("loop", "deploy_gate", 1.0),
                                               ("mlp", "learning_rate", 0.0001),
                                               ("engine", "snr_jitter_sigma_db", 0.0),
                                               ("mlp", "learning_rate", 1)])
def test_config_value_at_range_edge_loads(tmp_path, section, key, value):
    # a drift threshold above 1 refits at every monitor check (perfbench's catalog2x)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  {key}: {value}\n")
    loaded = load_config(cfg)
    owner = {"loop": loaded.loop, "mlp": loaded.loop.train, "engine": loaded.engine}[section]
    assert getattr(owner, key) == value
    assert type(getattr(owner, key)) is float  # every key here is a float, 1 included


@pytest.mark.parametrize("section,key", [("labeler", "separation_min_db: 4.0"),
                                         ("labeler", "baseline_offset_db: 6.0"),
                                         ("labeler", "baseline_quantile: 0.5"),
                                         ("mlp", "optimizer: ADAM")])
def test_removed_config_key_exits_2(tmp_path, capsys, section, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  {key}\n")
    assert main(["--config", str(cfg), "run-experiment"]) == EXIT_USAGE
    assert (f"config section {section!r}: unknown key(s) [{key.split(':')[0]!r}]"
            in capsys.readouterr().err)


def test_readme_config_example_is_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Configuration file\n.*?^```yaml\n(.*?)^```", readme,
                      re.M | re.S).group(1)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(block)
    assert load_config(cfg) == load_config(None)
    # and it names every key of every section
    documented = {name: set(section) for name, section in yaml.safe_load(block).items()}
    defaults = load_config(None)
    assert documented == {
        "engine": {f.name for f in dataclasses.fields(defaults.engine)},
        "labeler": {f.name for f in dataclasses.fields(defaults.labeler)},
        "mlp": {f.name for f in dataclasses.fields(defaults.loop.train)},
        "loop": {f.name for f in dataclasses.fields(defaults.loop)} - {"train"},
        "experiment": {f.name for f in dataclasses.fields(defaults.experiment)}}


@pytest.mark.parametrize("argv,code", [
    (["eval-labeler", "--trace", "BAD"], EXIT_USAGE),
    (["replay", "--trace", "BAD", "--model", "MODEL"], EXIT_USAGE),
    (["replay", "--trace", "TRACE", "--model", "BAD"], EXIT_USAGE),
    (["simulate", "--schedule", "BAD"], EXIT_USAGE),
    (["--config", "BAD", "run-experiment"], EXIT_USAGE),
    (["deploy", "--model", "BAD"], EXIT_USAGE),
    (["deploy", "--model", "MODEL", "--registry", "REGISTRY"], EXIT_FAILURE),
], ids=["eval_labeler_trace", "replay_trace", "replay_model", "simulate_schedule",
        "config", "deploy_model", "registry_journal"])
def test_non_utf8_input_file_exits_naming_it(tmp_path, capsys, argv, code):
    # a malformed input exits 2, and a malformed registry journal 1, as any other
    registry = tmp_path / "models"
    registry.mkdir()
    bad = registry / "registry.jsonl"
    bad.write_bytes(b"\xff\xfe\x00\x81\xc3")  # five bytes that are not UTF-8
    _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 5}])
    paths = {"BAD": bad, "MODEL": small_model(tmp_path), "TRACE": trace, "REGISTRY": registry}
    out = tmp_path / "o"
    assert main(["--out", str(out), *(str(paths.get(a, a)) for a in argv)]) == code
    assert f"{bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,name,out", [
    (["simulate", "--schedule", "SCHEDULE"], "out", "file"),
    (["eval-labeler", "--trace", "TRACE"], "out", "file"),
    (["run-experiment"], "out", "file"),
    (["run-experiment"], "out", "file/sub"),
    (["replay", "--trace", "TRACE", "--model", "MODEL"], "out", "file"),
    (["deploy", "--model", "MODEL"], "out", "file"),
    (["deploy", "--model", "MODEL", "--registry", "FILE"], "registry", "o"),
], ids=["simulate", "eval_labeler", "run_experiment", "run_experiment_under_file",
        "replay", "deploy", "deploy_registry"])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, argv, name, out):
    _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 5}])
    file = tmp_path / "file"
    file.write_text("kept\n")
    paths = {"SCHEDULE": tmp_path / "schedule.yaml", "TRACE": trace,
             "MODEL": small_model(tmp_path), "FILE": file}
    argv = ["--out", str(tmp_path / out), *(str(paths.get(a, a)) for a in argv)]
    assert main(argv) == EXIT_USAGE
    assert f"error: {name} path {file} is not a directory" in capsys.readouterr().err
    assert file.read_text() == "kept\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["run-experiment"], ["deploy", "--model", "MODEL"]],
                         ids=["run_experiment", "deploy"])
def test_registry_path_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, argv):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the registry path was checked")

    monkeypatch.setattr(mlp, "train", no_training)
    out = tmp_path / "o"
    out.mkdir()
    (out / "models").write_text("kept\n")
    paths = {"MODEL": small_model(tmp_path)}
    assert main(["--out", str(out), *(str(paths.get(a, a)) for a in argv)]) == EXIT_USAGE
    assert f"error: out path {out / 'models'} is not a directory" in capsys.readouterr().err
    assert (out / "models").read_text() == "kept\n"
    assert [p.name for p in out.iterdir()] == ["models"]


@pytest.mark.parametrize("argv,artifact", [
    (["simulate", "--schedule", "SCHEDULE", "--with-truth"], "trace.jsonl"),
    (["eval-labeler", "--trace", "TRACE"], "labeler_accuracy.csv"),
    (["replay", "--trace", "TRACE", "--model", "MODEL"], "detections.csv"),
    (["run-experiment"], "report.json"),
    (["run-experiment"], "transcript.jsonl"),
], ids=["simulate", "eval_labeler", "replay", "run_experiment_report",
        "run_experiment_transcript"])
def test_artifact_path_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch, argv,
                                                   artifact):
    _, trace = simulate(tmp_path, [{"id": 2, "duration_samples": 30}])

    def no_work(*args, **kwargs):
        raise AssertionError("worked before the artifact path was checked")

    monkeypatch.setattr("jamloop.cli.synth_stream", no_work)
    monkeypatch.setattr("jamloop.experiment.synth_stream", no_work)
    monkeypatch.setattr(mlp, "train", no_work)
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)
    paths = {"SCHEDULE": tmp_path / "schedule.yaml", "TRACE": trace,
             "MODEL": small_model(tmp_path)}
    assert main(["--out", str(out), *(str(paths.get(a, a)) for a in argv)]) == EXIT_USAGE
    assert f"{out / artifact}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [artifact]
    assert not any((out / artifact).iterdir())


class TestArgErrors:
    @pytest.mark.parametrize("command", ["simulate", "run-experiment"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        argv = ["--seed", "-1", "--out", str(tmp_path / "o"), command]
        if command == "simulate":
            argv += ["--schedule", str(write_schedule(tmp_path / "s.yaml", [2]))]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: jamloop")
        assert "argument --seed: seed -1 is below 0" in err
        assert not (tmp_path / "o").exists()

    def test_no_subcommand_exits_2(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == EXIT_USAGE
