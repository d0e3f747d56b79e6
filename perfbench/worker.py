"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE [--perms MU,...]

Runs the timed phase, then checks every output outside it, and prints one
JSON object: times, peak memory, per-operation outcomes and, when TRACE is
1, the per-layer aggregates of ``tracer.py`` (the span log goes to
``perfbench/traces/<workload>-seed<N>.jsonl``).  ``run.py`` starts it;
``--perms`` narrows ``yb-generic-s5`` to the elements a traced pass runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_pass(workload: str, seed: int, trace: bool, perms=None) -> dict:
    probe = HostProbe()
    tracer = Tracer(probe.clock) if trace else None
    span = tracer.span if tracer else workloads._no_span
    if tracer:
        tracer.install()
    verify_ref = checker.load_reference("verify_n4.json") if workload == "verify-n4" else None

    with probe:
        start = probe.clock()
        if workload == "verify-n4":
            seed_arg = checker.program_seed(seed, verify_ref)
            ops = workloads.run_verify_n4(probe, seed_arg, span)
        elif workload == "tables-n5":
            ops = workloads.run_tables_n5(probe, span)
        else:
            ops = workloads.run_yb_generic_s5(
                probe, perms or workloads.YB_PERMS, workloads.DEADLINE_S, span
            )
        raw_wall_s = probe.clock() - start

    if tracer:
        tracer.uninstall()
    if workload == "verify-n4":
        checker.check_verify_n4(ops, seed, verify_ref)
    elif workload == "tables-n5":
        checker.check_tables_n5(ops, checker.load_reference("tables_n5.json"))
    else:
        yb_ref = checker.load_reference("yb_generic_s5.json.gz")
        checker.check_yb_generic_s5(ops, yb_ref)

    # Each operation is scaled by the host speed around it; a missed
    # deadline costs the deadline, whatever the host's speed.
    for op in ops:
        scale = probe.factor(*op.probes)
        op.seconds, op.cpu_seconds = op.seconds * scale, op.cpu_seconds * scale
        if op.missed:
            op.seconds = op.cpu_seconds = workloads.DEADLINE_S
    # On yb-generic-s5 times and memory cover the fixed set of elements that
    # have a reference value, so that they compare across commits and are
    # not swamped by the misses, which ok_ratio and checks_done count.
    if workload == "yb-generic-s5":
        timed = [op for op in ops if op.name in yb_ref["elements"]]
        latencies = [op.seconds if op.ok else None for op in ops]
    else:  # one request is the workload's whole command list (README.md)
        timed = ops
        latencies = [sum(op.seconds for op in ops) if all(op.ok for op in ops) else None]
    wall_s = sum(op.seconds for op in timed)
    result = {
        "wall_s": wall_s,
        "cpu_s": sum(op.cpu_seconds for op in timed),
        "raw_wall_s": raw_wall_s,
        "probe_s": REFERENCE_PROBE_S / probe.factor(),
        "peak_rss_mb": max((op.peak_rss_mb for op in timed), default=0.0),
        "latencies": latencies,
        "ops": [
            {"name": op.name, "s": op.seconds, "ok": op.ok, "missed": op.missed,
             "checks": op.checks, "notes": op.notes}
            for op in ops
        ],
    }
    if tracer:
        scale = probe.factor()
        layers = {
            k: v * scale if k.endswith((".s", "_s")) else v for k, v in tracer.metrics().items()
        }
        layers["cli.out_bytes"] = sum(
            len(op.output.encode()) for op in ops if isinstance(op.output, str)
        )
        if workload == "verify-n4":
            for op in ops:
                reports, _ = checker.parse_verify_output(op.output or "", op.name)
                ranks = [checker.report_rank(r[0]) for r in reports]
                layers[f"cli.suite.{op.name}.rank"] = max(ranks, default=0)
        result["layers"] = layers
        result["untraced"] = tracer.untraced()
        result["absent"] = sorted(tracer.absent())
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_log(trace_dir / f"{workload}-seed{seed}.jsonl")
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("trace", type=int, choices=(0, 1))
    ap.add_argument("--perms", help="comma-separated subset of yb-generic-s5")
    args = ap.parse_args()
    perms = tuple(args.perms.split(",")) if args.perms else None
    result = run_pass(args.workload, args.seed, bool(args.trace), perms)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
