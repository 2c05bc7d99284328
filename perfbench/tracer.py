"""Span tracer that wraps jamloop's public functions from outside the package.

Every wrapped call records a span (id, parent id, name, start, end) in
memory. A span's self time is its duration minus the time covered by its
direct children, so the self times of all spans plus the time spent
outside any span add up to the traced wall time exactly.

Nothing inside ``src/`` is edited: functions are replaced on the module
objects (in every jamloop module that imported them by name) and methods
on their classes, and put back by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("scenarios", "store", "labeler", "mlp", "detector", "manager",
          "experiment", "cli")

# span name -> (module, attribute path); a dotted path names a method
TARGETS = {
    "scenarios.synth_stream": ("scenarios", "synth_stream"),
    "store.append": ("store", "TelemetryStore.append"),
    "store.window": ("store", "TelemetryStore.window"),
    "store.max_seq": ("store", "TelemetryStore.max_seq"),
    "store.join_labels": ("store", "TelemetryStore.join_labels"),
    "store.join_detections": ("store", "TelemetryStore.join_detections"),
    "labeler.label_window": ("labeler", "label_window"),
    "labeler.run_labeler": ("labeler", "run_labeler"),
    "mlp.train": ("mlp", "train"),
    "mlp.save": ("mlp", "save"),
    "mlp.load": ("mlp", "load"),
    "detector.infer": ("detector", "DetectorXapp.infer"),
    "detector.swap_model": ("detector", "DetectorXapp.swap_model"),
    "manager.monitor": ("manager", "monitor"),
    "manager.retrain": ("manager", "retrain"),
    "manager.deploy_if_better": ("manager", "deploy_if_better"),
    "manager.process": ("manager", "ClosedLoop.process"),
    "manager.close": ("manager", "ClosedLoop.close"),
    "experiment.run_experiment": ("experiment", "run_experiment"),
    "experiment.write_artifacts": ("experiment", "write_artifacts"),
    "cli.main": ("cli", "main"),
    "cli.simulate": ("cli", "cmd_simulate"),
    "cli.eval_labeler": ("cli", "cmd_eval_labeler"),
    "cli.replay": ("cli", "cmd_replay"),
}

# the span whose sink argument is wrapped too, so a caller's per-sample sink
# (JSON encoding in `simulate`) is charged to the caller, not to synthesis
SINK_OWNER = "scenarios.synth_stream"


class Tracer:
    """In-memory span recorder for one single-threaded traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one tuple per span: (name id, parent span id, start, end, self)
        self.spans: list[tuple[int, int, float, float, float]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, child time, name id]
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        nid = self._nid(name)
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children point at it
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0, nid]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.spans[sid] = (nid, parent, t0, t1, dur - frame[1])

    # ---- installing wrappers ----

    def install(self) -> None:
        """Replace every function and method in TARGETS by its traced wrapper."""
        for name, (mod_name, attr) in TARGETS.items():
            module = importlib.import_module(f"jamloop.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod in [m for k, m in sys.modules.items()
                        if k == "jamloop" or k.startswith("jamloop.")]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        """Put back everything ``install`` replaced."""
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _patch(self, owner, key: str, new) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, name: str, orig):
        tracer = self
        count = _COUNTERS.get(name)
        sink_owner = name == SINK_OWNER

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if sink_owner:
                args, kwargs = tracer._wrap_sink(args, kwargs)
            if count is None:
                return tracer.span(name, orig, *args, **kwargs)
            result = tracer.span(name, orig, *args, **kwargs)
            count(tracer, args, kwargs, result)
            return result
        return wrapper

    def _wrap_sink(self, args, kwargs):
        # synth_stream(schedule, params=None, sink=None)
        if "sink" in kwargs:
            sink = kwargs["sink"]
        elif len(args) >= 3:
            sink = args[2]
        else:
            return args, kwargs
        if sink is None or not self._stack:
            return args, kwargs
        name = self.names[self._stack[-1][2]].split(".")[0] + ".sink"

        def traced_sink(sample):
            return self.span(name, sink, sample)
        if "sink" in kwargs:
            return args, {**kwargs, "sink": traced_sink}
        return (*args[:2], traced_sink, *args[3:]), kwargs

    # ---- reporting ----

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, dict[str, float]] = {}
        for nid, _parent, t0, t1, self_s in self.spans:
            row = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0,
                                                   "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += self_s
        return out

    def durations(self, name: str) -> list[float]:
        """Duration of every span with this name, in seconds."""
        nid = self._name_id.get(name)
        return [t1 - t0 for n, _p, t0, t1, _s in self.spans if n == nid]

    def write(self, path, run_id: str) -> None:
        """Write every span as CSV: run, id, parent, name, start_us, end_us, self_us."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("run,id,parent,name,start_us,end_us,self_us\n")
            for sid, (nid, parent, t0, t1, self_s) in enumerate(self.spans):
                f.write(f"{run_id},{sid},{parent},{self.names[nid]},{(t0 - base) * 1e6:.1f},"
                        f"{(t1 - base) * 1e6:.1f},{self_s * 1e6:.1f}\n")


def _noop():
    return None


def span_cost_s(n: int = 20000) -> float:
    """Mean cost a span adds to its caller, timed on a wrapped no-op."""
    wrapped = Tracer()._wrap("probe", _noop)
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(n):
        _noop()
    return max(0.0, ((t1 - t0) - (time.perf_counter() - t1)) / n)


def _count_window(tracer, args, kwargs, result):
    # rows scanned = stream length at the call; window() copies all of it
    store, stream = args[0], (args[1] if len(args) > 1 else kwargs["stream"])
    tracer.count("store.window_rows_scanned", store.count(stream))


def _count_join(tracer, args, kwargs, result):
    tracer.count("store.join_rows_out", len(result))


def _count_train(tracer, args, kwargs, result):
    dataset, cfg = args[0], (args[1] if len(args) > 1 else kwargs["cfg"])
    tracer.count("mlp.train_rows", len(dataset))
    tracer.count("mlp.train_row_epochs", len(dataset) * cfg.epochs)


def _count_retrain(tracer, args, kwargs, result):
    tracer.count("manager.retrain_fits" if result.entry is not None
                 else "manager.retrain_skipped")


def _count_deploy(tracer, args, kwargs, result):
    if result.deployed:
        tracer.count("manager.deploys")


def _count_synth(tracer, args, kwargs, result):
    tracer.count("scenarios.samples", result.n_samples)


_COUNTERS = {
    "store.window": _count_window,
    "store.join_labels": _count_join,
    "store.join_detections": _count_join,
    "mlp.train": _count_train,
    "manager.retrain": _count_retrain,
    "manager.deploy_if_better": _count_deploy,
    "scenarios.synth_stream": _count_synth,
}
