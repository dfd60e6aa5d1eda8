"""The benchmark's own check, on small runs of every workload.

    python3 perfbench/selfcheck.py

1. Each mode prints exactly the metric names BENCHMARK.json declares for
   it (end_to_end untraced, per_layer traced), each matching [A-Za-z0-9_.-]+.
2. For a fixed seed, every count-type metric of a traced run (each `.calls`,
   max_digits, classes_exhausted and the two hit ratios) repeats exactly
   across two processes started with different hash seeds.

Exits 0 when both hold for all workloads, 1 otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from run import NAME_RE, ROOT, declared_metrics, import_homcart

SEED = 7
TRACE_OPS = 8


def run(workload: str, trace: int, hash_seed: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--ops", str(TRACE_OPS)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def names_ok(workload: str, trace: int, result: dict) -> bool:
    names = list(result["metrics"])
    ok = sorted(names) == sorted(declared_metrics(bool(trace))) and all(NAME_RE.fullmatch(n) for n in names)
    print(f"{workload} --trace {trace}: {len(names)} metric names {'match' if ok else 'DIFFER from'} BENCHMARK.json")
    return ok


def counts(result: dict) -> dict:
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] != "s" and name != "bench.trace_overhead_ratio"
    }


def main() -> int:
    ok = True
    for workload in import_homcart().WORKLOADS:
        ok &= names_ok(workload, 0, run(workload, 0, "0"))
        first, second = run(workload, 1, "1"), run(workload, 1, "2")
        ok &= names_ok(workload, 1, first)
        a, b = counts(first), counts(second)
        differ = sorted(n for n in a if a[n] != b.get(n))
        print(f"{workload}: {len(a)} count metrics over {TRACE_OPS} ops "
              + ("repeat exactly" if not differ else f"DIFFER: {differ}"))
        ok &= not differ
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
