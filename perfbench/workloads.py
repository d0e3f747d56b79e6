"""The three benchmark workloads and their timed phases.

Each workload is a fixed list of operations run one after another in the
calling process, timed through a ``hostspeed.HostProbe``.  A run returns
one ``Op`` per operation with its times and raw output; checking the
outputs happens afterwards, outside the timed phase (see ``checker.py``).

* ``verify-n4``: the twelve suites of ``ybhecke verify all -n 4``, each one
  through ``cli.main`` with stdout captured.  The suite list is pinned here,
  so registering a new suite in the CLI does not change the workload.
* ``yb-generic-s5``: ``yb_element(algebra("T", 5), mu)`` with symbolic
  spectral parameters for the 29 permutations of S5 of length >= 7, each
  under a CPU-time deadline.
* ``tables-n5``: the n = 5 Schubert table (text) and Grothendieck table
  (JSON) through ``cli.main``, then ``verify_schubert_transition(5)``.
"""

from __future__ import annotations

import contextlib
import io
import resource
import signal
from dataclasses import dataclass, field
from typing import Any

VERIFY_SUITES = (
    "relations",
    "ybe",
    "word-independence",
    "orthogonality",
    "schubert-transition",
    "grothendieck-transition",
    "yang-leading",
    "newton",
    "normal-ordering",
    "appendix",
    "cohomology-basis",
    "degeneration",
)

# All permutations of S5 of length >= 7, by length, then lexicographically;
# the 23 that finish within the deadline at the commit that defined the
# benchmark come first and the six that miss it last, so that peak memory,
# read after the 23 (``worker.py``), does not depend on where a deadline cut
# a miss off.
YB_PERMS = (
    "25431", "34521", "35241", "35412", "42531", "43251", "43512", "45132",
    "45213", "51432", "52341", "52413", "53142", "53214", "54123",
    "35421", "43521", "45231", "45312", "52431", "53241", "54132", "54213",
    "53412", "45321", "53421", "54231", "54312", "54321",
)

# CPU seconds one Yang-Baxter element may take on the reference host of
# ``hostspeed.py``; the budget given to the CPU timer is scaled by the
# host speed probed just before the element, so that a slow host does not
# turn finishers into misses.  At the commit that defined the benchmark
# every finishing element took at most 1.6 s so scaled (1.8 s unscaled on
# a quiet host) and the fastest element that does not finish in time
# (45321) took about 27 s.  The deadline sits between the two, 2.5x above
# the slowest finisher and 7x below 45321, so that a host that slows down
# after the probe does not turn a finisher into a miss and the set of
# misses repeats exactly.  It is not longer because each miss costs the
# whole deadline in every run, and this is already the longest workload.
DEADLINE_S = 4.0

WORKLOADS = ("verify-n4", "yb-generic-s5", "tables-n5")


class DeadlineMissed(Exception):
    """Raised inside an operation whose CPU-time deadline expired."""


@dataclass
class Op:
    """One timed operation: what it produced and what it cost.

    ``seconds`` and ``cpu_seconds`` leave out host-probe time; ``probes``
    are the probe marks around the operation (see ``hostspeed.py``);
    ``peak_rss_mb`` is the process's peak memory when the operation ended.
    """

    name: str
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    probes: tuple[int, int] = (1, 1)
    peak_rss_mb: float = 0.0
    exit_code: int | None = None
    output: Any = None
    error: str | None = None
    missed: bool = False
    # Set by the checker.
    ok: bool = False
    checks: int = 0
    notes: list[str] = field(default_factory=list)


def _no_span(group: str, layer: str):
    return contextlib.nullcontext()


def _run_ops(calls, meter) -> list[Op]:
    """Run (name, call) pairs in order; each call returns (exit code, output)."""
    ops = []
    for name, call in calls:
        op = Op(name)
        first = meter.mark()
        start, cpu_start = meter.clock(), meter.cpu_clock()
        try:
            op.exit_code, op.output = call()
        except DeadlineMissed as exc:
            op.missed = True
            op.error = str(exc)
        except Exception as exc:  # a crash fails the operation, not the run
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = meter.clock() - start
        op.cpu_seconds = meter.cpu_clock() - cpu_start
        op.probes = (first, meter.mark())
        op.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops.append(op)
    return ops


def _cli(argv: list[str], span) -> tuple[int, str]:
    from ybhecke import cli

    buf = io.StringIO()
    with span, contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_verify_n4(meter, program_seed: int, span=_no_span, suites=VERIFY_SUITES) -> list[Op]:
    def call(suite):
        argv = ["verify", suite, "-n", "4", "--seed", str(program_seed)]
        return lambda: _cli(argv, span(f"cli.suite.{suite}", "L5"))

    return _run_ops([(suite, call(suite)) for suite in suites], meter)


def run_tables_n5(meter, span=_no_span) -> list[Op]:
    from ybhecke.schubert import verify_schubert_transition

    calls = [
        ("schubert", lambda: _cli(["schubert", "-n", "5"], span("cli.table", "L5"))),
        (
            "grothendieck",
            lambda: _cli(
                ["grothendieck", "-n", "5", "--format", "json"], span("cli.table", "L5")
            ),
        ),
        ("schubert-transition", lambda: (0, verify_schubert_transition(5)[1])),
    ]
    return _run_ops(calls, meter)


def _on_deadline(signum, frame):
    raise DeadlineMissed("missed its CPU deadline")


def run_yb_generic_s5(meter, perms=YB_PERMS, deadline_s=DEADLINE_S, span=_no_span) -> list[Op]:
    from ybhecke.hecke import algebra, yb_element
    from ybhecke.permutations import Permutation

    alg = algebra("T", 5)

    def call(mu):
        def element():
            try:
                signal.setitimer(signal.ITIMER_PROF, deadline_s / meter.recent_factor())
                return 0, yb_element(alg, Permutation.from_string(mu))
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)

        return element

    previous = signal.signal(signal.SIGPROF, _on_deadline)
    try:
        return _run_ops([(mu, call(mu)) for mu in perms], meter)
    finally:
        signal.signal(signal.SIGPROF, previous)
