"""jamloop benchmark: one workload per process, end-to-end or traced per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog2x --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
repetition. The exit code is 0 only if every output check passed.
See perfbench/README.md for the metric definitions.
"""

import time

T0 = time.perf_counter()  # process start, for setup_s; before any other import

from speed import Speedometer  # noqa: E402

SETUP = Speedometer()  # setup_s is measured at the reference speed, like wall_s
SETUP.start(T0)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# single-threaded BLAS, read when numpy loads: set before jamloop is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".bench_build") / "perfbench"
SETUP_PROBES = 4  # extra fresh processes that only set up; setup_s is the median
WORKLOAD_NAMES = ("catalog2x", "steady", "trace_io")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "ingest_p50_us": "us",
    "loop_acc": "fraction",
    "labeler_acc": "fraction",
    "peak_rss_mb": "MB",
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="repeat the workload while another repetition fits in this time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _pin_cpu() -> int:
    """Pin this process (and its children) to one CPU: the highest allowed."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _environment(cpu: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _setup_probes(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    return [float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=120).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


def _artifacts_repeat(key: str, hashes: dict[str, str]) -> bool:
    """True if every run of this code and seed so far wrote the same CSV artifacts."""
    path = OUT_DIR / "artifact_hashes.json"
    code = hashlib.sha256(b"".join(
        p.read_bytes() for p in sorted((ROOT / "src" / "jamloop").glob("*.py"))))
    ledger = json.loads(path.read_text()) if path.exists() else {}
    known = ledger.setdefault(f"{key}/{code.hexdigest()}", hashes)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1))
    os.replace(tmp, path)
    return known == hashes


def _run_reps(workload, work: Path, seconds: float, tracer=None):
    """Repeat the workload while another repetition fits in ``seconds`` (at least once)."""
    from workloads import RepResult
    reps, errors = [], []
    start = time.perf_counter()
    while True:
        rep_dir = work / f"rep{len(reps)}"
        rep_dir.mkdir()
        gc.collect()  # start every repetition from the same heap
        try:
            reps.append(workload.run(rep_dir, tracer))
            reps[-1].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        except Exception as exc:  # a failed repetition is reported, not raised
            errors.append(f"{type(exc).__name__}: {exc}")
            reps.append(RepResult(checks={"completed": False}))
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps, errors


def _end_to_end(reps, setup_s: float) -> dict[str, float]:
    wall = statistics.median(r.ref_wall_s for r in reps)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "samples_per_s": reps[0].n_samples / wall,
        "ingest_p50_us": statistics.median(
            statistics.median(r.ingest_ref_s) for r in reps) * 1e6,
        "loop_acc": statistics.median(r.loop_acc for r in reps),
        "labeler_acc": statistics.median(r.labeler_acc for r in reps),
        # after the first repetition, so it does not grow with the repetition count
        "peak_rss_mb": reps[0].peak_rss_mb,
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "jamloop" / "__init__.py").is_file():
        print(f"error: no jamloop sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpu = _pin_cpu()
    from workloads import WORKLOADS, percentile

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, args.smoke, work)
        SETUP.stop()
        own_setup_s = SETUP.ref_s
        # a live feeder does not hold its whole input: keep the pre-built inputs
        # out of the garbage collector's traversals, which the program pays for
        gc.freeze()
        if args.setup_only:
            print(own_setup_s)
            return 0
        if args.trace:
            from layers import PER_LAYER as units
            from layers import per_layer_metrics, self_time_table
            from tracer import Tracer
            tracer = Tracer()
            reps, errors = _run_reps(workload, work, 0, tracer)
            if not errors:
                tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv",
                             run_id=work.name)
                metrics = per_layer_metrics(tracer, reps[0])
                print(self_time_table(tracer, reps[0].wall_s))
        else:
            units = END_TO_END
            setup_s = statistics.median(_setup_probes(args) + [own_setup_s])
            reps, errors = _run_reps(workload, work, args.seconds)
            if not errors:
                metrics = _end_to_end(reps, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [(name, ok) for r in reps for name, ok in r.checks.items()]
    key = f"{args.workload}/{args.seed}/{'smoke' if args.smoke else 'full'}"
    checks += [("csv_artifacts_repeat", _artifacts_repeat(key, r.artifacts))
               for r in reps if r.artifacts]
    failed_checks = [name for name, ok in checks if not ok]
    attempted = sum(r.ops for r in reps) + len(checks)
    failed = len(failed_checks)  # a repetition that raised failed its "completed" check
    for msg in errors + [f"check failed: {name}" for name in failed_checks]:
        print(f"error: {msg}", file=sys.stderr)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "reps": [{"wall_s": r.wall_s, "ref_wall_s": r.ref_wall_s,
                                "kernel_p50_us": r.kernel_p50_us,
                                "ingest_p999_ms": percentile(r.ingest_s, 0.999) * 1e3,
                                "first_deploy_seq": r.first_deploy_seq,
                                "loop_acc": r.loop_acc} for r in reps],
                      "env": _environment(cpu)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if errors else {name: {"value": metrics[name], "unit": unit}
                                      for name, unit in units.items()},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Run every workload in its own process; print one result line per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print(json.dumps({"workload": name, **result}))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.workload == "all":
            SETUP.stop()  # no kernel runs in this process while the workloads run
            return run_all(args)
        return run_one(args)
    finally:
        SETUP.stop()  # on every path out: an armed timer would kill the process


if __name__ == "__main__":
    sys.exit(main())
