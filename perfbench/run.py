"""Benchmark of the ybhecke package: three exact workloads, traced or not.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``) run one at a time, each pass in
a fresh single-threaded interpreter (``worker.py``), so at most one child
process exists at any moment.

* ``--trace 0`` measures set-up time, then repeats whole passes while the
  next one is expected to end within ``--seconds`` (at least one pass), and
  reports the end-to-end metrics of ``BENCHMARK.json`` as medians over the
  passes.
* ``--trace 1`` runs one untraced and one traced pass and reports the
  per-layer metrics of the traced pass, which skips the elements that
  missed their deadline in the untraced one; ``trace.overhead_s`` is the
  traced minus the untraced wall time of the same operations.  The span
  log goes to ``perfbench/traces/<workload>-seed<N>.jsonl``.  A metric fed
  by a function the package no longer has is left out of the result, and
  the function is named on a ``not traced:`` line (``tracer.py``).

Times are scaled to a reference host speed (``hostspeed.py``, README.md).
Every output is checked exactly against ``perfbench/reference/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an
output is wrong or an operation raised; a missed deadline is a failed
operation, not a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9
# A run must end within 180 s; a pass still running at this point is killed.
RUN_LIMIT_S = 175
# op_p50_s of a run whose median operation failed: a failure counts as
# slower than any success, and JSON has no infinity.
FAILED_OP_S = 1e6

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


# A fresh interpreter imports ybhecke, notes the time, then probes the host
# speed (see hostspeed.py).  perf_counter is the system-wide monotonic
# clock, so the parent can subtract its own start time.
_SETUP_CHILD = (
    "import sys, time; sys.path[:0] = ['src', 'perfbench']; import ybhecke; "
    "t = time.perf_counter(); import hostspeed; p = hostspeed.HostProbe(); "
    "[p.sample() for _ in range(5)]; print(t, p.factor())"
)


def measure_setup() -> float:
    """Median time for a fresh interpreter to start and import ybhecke,
    each start scaled by the host speed probed right after it."""
    cmd = [sys.executable, "-c", _SETUP_CHILD]
    times = []
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        out = subprocess.run(
            cmd, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True
        ).stdout.split()
        if rep:  # the first start writes the bytecode cache
            times.append((float(out[0]) - start) * float(out[1]))
    return statistics.median(times)


def run_worker(workload: str, seed: int, trace: int, end: float, *extra: str) -> dict:
    """One pass in a fresh interpreter, killed if still running at ``end``."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(trace), *extra]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=end - time.perf_counter()
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(passes: list[dict], setup_s: float) -> dict[str, float]:
    """End-to-end metrics, as medians over the passes."""
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    ok = sum(op["ok"] for op in ops)
    latencies = [t if t is not None else float("inf") for p in passes for t in p["latencies"]]
    op_p50 = statistics.median(latencies)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": ok / attempted,
        "checks_done": statistics.median(sum(op["checks"] for op in p["ops"]) for p in passes),
        "op_p50_s": op_p50 if op_p50 != float("inf") else FAILED_OP_S,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ybhecke" / "__init__.py").is_file():
        print(f"perfbench: no ybhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end = time.perf_counter() + RUN_LIMIT_S

    untraced = []
    if args.trace:
        plain = run_worker(args.workload, args.seed, 0, end)
        # The traced pass leaves out elements that missed their deadline in
        # the untraced one: where a deadline cuts an element off is noise,
        # and two passes of misses would not fit in the run's 180 s.
        finished = [op["name"] for op in plain["ops"] if not op["missed"]]
        extra = []
        if len(finished) < len(plain["ops"]):
            extra = ["--perms", ",".join(finished)]
        traced = run_worker(args.workload, args.seed, 1, end, *extra)
        passes = [plain, traced]
        untraced = traced["untraced"]
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = sum(op["s"] for op in traced["ops"])
        plain_s = {op["name"]: op["s"] for op in plain["ops"]}
        layers["trace.overhead_s"] = sum(op["s"] - plain_s[op["name"]] for op in traced["ops"])
        layers["host.raw_wall_s"] = traced["raw_wall_s"]
        layers["host.probe_s"] = traced["probe_s"]
        # A metric the pass did not produce is 0 (no suite ran on tables-n5),
        # unless a target it depends on was not traced.
        wanted = [m for m in spec["per_layer"] if m["name"] not in traced["absent"]]
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        setup_s = measure_setup()
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(run_worker(args.workload, args.seed, 0, end))
            now = time.perf_counter()
            if now - start + (now - pass_start) > args.seconds:
                break
        wanted = spec["end_to_end"]
        values = summarize(passes, setup_s)

    ops = [op for p in passes for op in p["ops"]]
    missed = sorted({op["name"] for op in ops if op["missed"]})
    wrong = [op for op in ops if not op["ok"] and not op["missed"]]
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es)")
    for p in passes:
        print(f"  pass: {p['raw_wall_s']:.3f} s unscaled, probe {p['probe_s'] * 1e3:.3f} ms")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if missed:
        print("  missed the deadline: " + " ".join(missed))
    if untraced:
        print("  not traced: " + " ".join(untraced))
    for op in wrong:
        print(f"  FAILED {op['name']}: {'; '.join(op['notes'])}")
    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
