"""Run one homcart workload and print its metrics.

    python3 perfbench/run.py --workload paper-range --seed 1 --seconds 40 --trace 0

Run from the repository root; homcart is imported from `src/`.  One
process, one thread, closed loop: the next op starts when the previous
one returns.  Every op's output is checked.

--trace 0 times ops for --seconds (and at least MIN_OPS ops) and reports
the end-to-end metrics.  setup_s is the median wall time of SETUP_PROBES
fresh interpreters that import homcart and prepare op 0.  Every time is
rescaled to a reference host speed (see hostspeed.py): a reference kernel
runs before each op and around each probe, and a time is scaled by the
kernel's reference time over its local median.  The table lines also give
the times as measured.

--trace 1 runs a fixed number of ops (the workload's `trace_ops`, or
--ops), first untraced and then traced on the same inputs, and reports the
per-layer metrics: calls and self time of each traced function, counters
read from returned objects, and traced / untraced op time, both rescaled.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Lines before it are a readable table and provenance.
The exit code is 0 only when every op passed its gate.
"""

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_OPS = 110          # p90 then has at least ten samples beyond it
MAX_RUN_SECONDS = 120  # stop extending a run to MIN_OPS after this long
SETUP_PROBES = 7
SETUP_KERNEL_SAMPLES = 5  # host-speed samples before and after each probe
FAIL, UNKNOWN = "fail", "unknown"  # grades from a workload's check()
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "decided_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here, or its output breaks its own contract."""


def import_homcart():
    """Pin numeric libraries to one thread, then import homcart from src/.
    hostspeed imports numpy, so the functions below import it only after this."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "homcart" / "__init__.py").is_file():
        raise BenchError(f"no homcart package under {SRC}")
    sys.path.insert(0, str(SRC))
    import homcart

    if Path(homcart.__file__).resolve().parent != SRC / "homcart":
        raise BenchError(f"imported homcart from {homcart.__file__}, not from {SRC}")
    import workloads

    return workloads


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_names(metrics: dict, trace: bool):
    declared = declared_metrics(trace)
    bad = [n for n in metrics if not NAME_RE.fullmatch(n)]
    if bad or sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise BenchError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}, malformed {bad}")


class Tally:
    """Op times and gate grades."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.unknown = 0
        self.raised = 0

    def run_op(self, wl, x):
        t0 = time.perf_counter()
        try:
            out = wl.op(x)
        except Exception:
            dt = time.perf_counter() - t0
            self.raised += 1
            self.failed += 1
            if self.raised <= 3:
                traceback.print_exc()
        else:
            dt = time.perf_counter() - t0
            grade = wl.check(x, out)
            self.failed += grade == FAIL
            self.unknown += grade == UNKNOWN
            if grade == FAIL and self.failed <= 3:
                print(f"op failed its gate on input {x!r}", file=sys.stderr)
        self.times.append(dt)

    @property
    def attempted(self) -> int:
        return len(self.times)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over SETUP_PROBES fresh interpreters of the wall time to
    import homcart and prepare op 0, rescaled and as measured."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    rescaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = [hostspeed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        after = [hostspeed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
        raw.append(dt)
        rescaled.append(dt * hostspeed.scale_factor(before + after))
    return statistics.median(rescaled), statistics.median(raw)


def measure(wl, seconds: float) -> tuple[Tally, list[float]]:
    """Closed loop for `seconds` and at least MIN_OPS ops, with one kernel
    sample before each op and one after the last; returns the tally and the
    samples.  Input preparation and kernel samples are not op time."""
    import hostspeed

    tally = Tally()
    samples = [hostspeed.sample()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and tally.attempted >= MIN_OPS) or elapsed >= MAX_RUN_SECONDS:
            return tally, samples
        tally.run_op(wl, wl.prepare(tally.attempted))
        samples.append(hostspeed.sample())


def end_to_end(wl, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    import hostspeed

    setup, setup_raw = setup_seconds(wl.name, seed)
    tally, samples = measure(wl, seconds)
    raw_ms = [t * 1e3 for t in tally.times]
    times_ms = hostspeed.rescale(raw_ms, samples)
    p90 = statistics.quantiles(times_ms, n=10)[8]
    n = tally.attempted
    metrics = {
        "setup_s": setup,
        "op_ms.p50": statistics.median(times_ms),
        "op_ms.p90": p90,
        "ops_per_s": (n - tally.raised) / sum(times_ms) * 1e3,
        "decided_ratio": 1 - tally.unknown / n,
    }
    notes = [
        f"samples {n} ops, {sum(t > p90 for t in times_ms)} beyond p90",
        f"fail_ratio {tally.failed / n} ratio",
        f"unknown_ratio {tally.unknown / n} ratio",
        f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024} MB",
        f"host kernel_ms median {statistics.median(samples)}, quartiles "
        f"{statistics.quantiles(samples, n=4)[::2]}, reference {hostspeed.REF_KERNEL_MS}",
        f"as measured: setup_s {setup_raw} s, op_ms.p50 {statistics.median(raw_ms)} ms, "
        f"op_ms.p90 {statistics.quantiles(raw_ms, n=10)[8]} ms",
    ]
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(wl, n_ops: int) -> tuple[Tally, dict, list[str]]:
    import hostspeed
    from tracer import Tracer, metric_units

    inputs = [wl.prepare(i) for i in range(n_ops)]
    tally = Tally()
    tracer = Tracer()
    samples = [hostspeed.sample()]
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            for x in inputs:
                tally.run_op(wl, x)
                samples.append(hostspeed.sample())
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    times = hostspeed.rescale(tally.times, samples)
    metrics["bench.trace_overhead_ratio"] = sum(times[n_ops:]) / sum(times[:n_ops])
    units = metric_units()
    units["bench.trace_overhead_ratio"] = "ratio"
    notes = [
        f"samples {n_ops} ops per pass, untraced then traced",
        f"fail_ratio {tally.failed / tally.attempted} ratio",
        f"unknown_ratio {tally.unknown / tally.attempted} ratio",
    ]
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, notes


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, help="ops per pass of a traced run (default: the workload's)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        workloads = import_homcart()
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload](args.seed)
        if args.setup_probe:
            wl.prepare(0)
            return 0
        if args.trace:
            tally, metrics, notes = per_layer(wl, args.ops or wl.trace_ops)
        else:
            tally, metrics, notes = end_to_end(wl, args.seed, args.seconds)
        check_names(metrics, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    for note in notes:
        print(f"# {note}")
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
