"""wfsim benchmark: run one workload, print its metrics, check its outputs.

    python3 perfbench/run.py --workload collapse_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every check passed, 1 when a check failed, 2 on bad usage or missing sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import workloads
from calibration import calibrate, reference_window
from tracing import COUNTS, SPAN_NAMES, Tracer, per_op_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile

END_TO_END = {"op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# op_s_p90 is printed but not gated: no proietti_report run reaches P90_MIN_OPS.
SHOWN_END_TO_END = {"op_s_p50": "s", "op_s_p90": "s", **END_TO_END}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    **dict(COUNTS),
    "trace.overhead": "ratio",
}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np) -> int | str:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, each importing wfsim and building
    inputs, with the reference windows around each one."""
    probe = str(Path(__file__).with_name("setup_probe.py"))
    values = []
    windows = [reference_window(0.2)]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, probe, str(ROOT), name, str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        values.append(float(out.stdout.strip().splitlines()[-1]))
        windows.append(reference_window(values[-1]))
    return values, windows


def run_phase(workload, first: int, seconds: float, min_ops: int, tracer=None):
    """Closed loop: run at least ``min_ops`` operations, and more while the
    next one, at the mean time so far, still ends within ``seconds``.

    In-process operations are followed by a reference window (see
    calibration.py).  Returns (operation times, reference windows or None,
    {op: problem})."""
    times = array("d")
    windows = array("d", [reference_window(0.2)]) if workload.in_process else None
    busy = 0.0
    failures: dict[int, str] = {}
    start = time.perf_counter()
    k = first
    while True:
        if tracer is not None:
            tracer.op = k
        problem = None
        t0 = time.perf_counter()
        try:
            out = workload.op(k)
        except Exception as exc:  # a raising operation is a failed one
            problem = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        times.append(t1 - t0)
        busy += t1 - t0
        if windows is not None:
            windows.append(reference_window(t1 - t0))
        if problem is None:
            try:
                problem = workload.check(k, out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures[k] = problem
        k += 1
        elapsed = time.perf_counter() - start
        if len(times) >= min_ops and elapsed + busy / len(times) > seconds:
            return times, windows, failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(workload) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return statistics.median(workload.child_peaks)


def op_seconds(times, windows) -> list[float]:
    """Operation times as reported: calibrated when windows were taken."""
    return list(times) if windows is None else calibrate(times, windows)


def measure(workload, seconds: float) -> tuple[dict, dict, int, dict]:
    """Untraced run: end-to-end metrics, failures, operations attempted."""
    setup_raw, setup_windows = setup_seconds(workload.name, workload.seed)
    setup = calibrate(setup_raw, setup_windows)
    if workload.in_process:
        workload.prepare()
    raw, windows, failures = run_phase(workload, 0, seconds, min_ops=2)
    failures.update(workload.finish())
    times = op_seconds(raw, windows)
    n = len(times)
    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_p90": percentile(times, 0.9) if n >= P90_MIN_OPS else None,
        "ops_per_s": n / sum(times),
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": statistics.median(setup),
    }
    how = (
        f"calibrated, reference {statistics.median(windows):.3g} s per call"
        if windows is not None else "wall clock, not calibrated"
    )
    notes = {
        "op_s_p50": f"median of {n} operations, {how}; raw {statistics.median(raw):.6g} s",
        "op_s_p90": f"reported from {P90_MIN_OPS} operations; not in BENCHMARK.json",
        "ops_per_s": f"raw {n / sum(raw):.6g} 1/s",
        "peak_rss_mb": "this process" if workload.in_process else "median over CLI children",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes, calibrated; "
        f"raw {statistics.median(setup_raw):.6g} s",
    }
    return metrics, failures, n, notes


def measure_traced(workload, seconds: float, trace_file: Path) -> tuple[dict, dict, int, dict]:
    """Half the time untraced, half traced: per-layer metrics and overhead."""
    if workload.in_process:
        workload.prepare()
    plain, plain_windows, failures = run_phase(workload, 0, seconds / 2, min_ops=1)
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
        try:
            traced, traced_windows, more = run_phase(workload, len(plain), seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        exported = [tracer.export()]
    else:
        workload.traced = True
        traced, traced_windows, more = run_phase(workload, len(plain), seconds / 2, min_ops=1)
        workload.traced = False
        exported = []
        for k in range(len(plain), len(plain) + len(traced)):
            try:
                data = json.loads(workload.trace_path(k).read_text())
            except (OSError, ValueError) as exc:
                more.setdefault(k, f"trace unreadable: {exc}")
                continue
            for span in data["spans"]:
                span[4] = k  # the child ran this one operation
            exported.append(data)
    failures.update(more)
    failures.update(workload.finish())
    trace_file.parent.mkdir(exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(exported, fh)
    metrics = per_op_metrics(exported, len(traced))
    metrics["trace.overhead"] = statistics.median(
        op_seconds(traced, traced_windows)
    ) / statistics.median(op_seconds(plain, plain_windows))
    notes = {"chsh.grid_pairs": "computed from grid_step", "hilbert.embed.bytes": "computed, 16*d^2 per call"}
    return metrics, failures, len(plain) + len(traced), notes


def run_one(args) -> int:
    try:
        workloads.use_source(ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(tmp))
        if args.trace:
            trace_file = ROOT / ".perfbench-traces" / f"{args.workload}_seed{args.seed}.json"
            metrics, failures, attempted, notes = measure_traced(workload, args.seconds, trace_file)
            units, shown = PER_LAYER, PER_LAYER
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics, failures, attempted, notes = measure(workload, args.seconds)
            units, shown = END_TO_END, SHOWN_END_TO_END
    failed = min(len(failures), attempted)
    for name, unit in shown.items():
        value = "-" if metrics[name] is None else f"{metrics[name]:.6g}"
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:<42} {value} {unit}{note}")
    print(f"{'fail_ratio':<42} {failed / attempted:.6g} failed/attempted   ({failed} of {attempted})")
    for k in sorted(failures)[:10]:
        print(f"FAILED op {k}: {failures[k]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so CLI children are killed and the
    # temporary directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
