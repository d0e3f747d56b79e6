"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run once, at the commit that defines the benchmark, from the repository
root; the files it writes under ``perfbench/reference/`` are committed.
Re-running it at a later commit would make that commit its own reference,
so a later change must not re-run it.

* ``verify_n4.json``: the check count of each suite of ``verify -n 4`` for
  CLI seeds 0..63.  Only ``relations``, ``yang-leading``, ``newton``,
  ``normal-ordering`` and ``appendix`` receive the seed (``cli.run_suite``);
  the other suites are run once and their counts copied to every seed.
* ``tables_n5.json``: a digest of each n = 5 Schubert and Grothendieck
  entry's canonical form, and the check count of the n = 5 transition.
* ``yb_generic_s5.json.gz``: the coefficients (JSON form) of every element
  of yb-generic-s5 that finishes within the deadline, and the named set of
  elements that miss it.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
import workloads  # noqa: E402

SEEDED_SUITES = ("relations", "yang-leading", "newton", "normal-ordering", "appendix")
N_SEEDS = 64


def _suite_counts(suites, seed: int) -> dict[str, int]:
    out = {}
    for op in workloads.run_verify_n4(HostProbe(), seed, suites=suites):
        reports, closing = checker.parse_verify_output(op.output, op.name)
        if op.exit_code != 0 or not closing or not all(r[1] for r in reports):
            raise SystemExit(f"suite {op.name} does not pass at seed {seed}")
        out[op.name] = sum(r[2] for r in reports)
    return out


def verify_reference() -> dict:
    fixed = [s for s in workloads.VERIFY_SUITES if s not in SEEDED_SUITES]
    base = _suite_counts(fixed, 0)
    seeds = {}
    for seed in range(N_SEEDS):
        counts = {**base, **_suite_counts(SEEDED_SUITES, seed)}
        seeds[str(seed)] = {s: counts[s] for s in workloads.VERIFY_SUITES}
        print(f"seed {seed}: {sum(counts.values())} checks", flush=True)
    return {"suites": list(workloads.VERIFY_SUITES), "seeds": seeds}


def tables_reference() -> dict:
    ops = workloads.run_tables_n5(HostProbe())
    schubert, grothendieck, transition = ops
    if any(op.error or op.exit_code for op in ops) or not transition.output.passed:
        raise SystemExit("tables-n5 does not pass")
    return {
        "schubert": checker.table_text_digests(schubert.output),
        "grothendieck": checker.table_json_digests(grothendieck.output),
        "transition_checks": transition.output.checks,
    }


def yb_reference() -> dict:
    ops = workloads.run_yb_generic_s5(HostProbe())
    if any(op.error and not op.missed for op in ops):
        raise SystemExit("an element of yb-generic-s5 raised")
    elements = {op.name: checker.element_to_json(op.output) for op in ops if not op.missed}
    missed = [op.name for op in ops if op.missed]
    for op in ops:
        print(f"{op.name}: {op.error or 'ok'} ({op.seconds:.2f} s)", flush=True)
    return {"deadline_s": workloads.DEADLINE_S, "missed": missed, "elements": elements}


def main() -> int:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    data = verify_reference()
    (out / "verify_n4.json").write_text(json.dumps(data, indent=1) + "\n")
    data = tables_reference()
    (out / "tables_n5.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    data = yb_reference()
    with gzip.GzipFile(out / "yb_generic_s5.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
