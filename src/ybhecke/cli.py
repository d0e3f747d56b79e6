"""Command-line interface: compute, verify and export everything.

Subcommands:

* ``schubert`` / ``grothendieck`` print the full polynomial tables,
* ``yb`` expands a Yang-Baxter element on the standard basis
  (``--shorthand`` also lists its Rothe factor sequence),
* ``gram`` prints the pairing matrix and checks orthogonality,
* ``verify`` runs one of the named verification suites; a suite that runs
  at another rank than the one asked for (above its limit in
  :data:`SUITES`, or below the least rank it needs) says so on stderr.

:data:`SUITES` is the one place that says at which ranks each suite runs,
which families it runs without ``--family`` and which driver runs it;
``verify``, ``verify all`` and ``gram`` all read it.

Exit codes: 0 success, 2 usage or configuration error, 3 a mathematical
verification failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import YBHeckeError
from .hecke import (
    FACTOR_FAMILIES,
    algebra,
    gram_matrix,
    orthogonality_violations,
    verify_orthogonality,
    verify_rothe,
    verify_word_independence,
    verify_ybe,
    word_steps,
    yb_element,
    yb_product,
)
from .operators import FAMILIES, check_relations
from .permutations import MAX_RANK, Permutation, all_permutations, check_rank, rothe_diagram
from .poly import RationalFunction, format_poly, format_rf, substitute
from .report import CheckReport
from .schubert import (
    grothendieck_table,
    schubert_table,
    verify_appendix,
    verify_cohomology_basis,
    verify_grothendieck_transition,
    verify_groth_to_schubert_degeneration,
    verify_newton_interpolation,
    verify_normal_ordering,
    verify_schubert_transition,
    verify_yang_leading_terms,
)
from .serialize import parse_scalar, poly_to_json, rf_to_json


class ConfigError(Exception):
    """A bad flag combination; maps to exit code 2."""


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand names its
    handler, which :func:`main` looks up when it dispatches, so a handler
    replaced after the first call (patched or traced) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="ybhecke",
        description="Exact Yang-Baxter bases of type-A Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, with_family=False):
        p.set_defaults(handler=handler)
        p.add_argument("-n", type=int, required=True, help="rank of the symmetric group")
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        p.add_argument("--out", help="also write the output to this file")
        if with_family:
            p.add_argument("--family", choices=FACTOR_FAMILIES, default="T")

    p = sub.add_parser("schubert", help="double Schubert polynomial table")
    common(p, "cmd_table")
    p = sub.add_parser("grothendieck", help="double Grothendieck polynomial table")
    common(p, "cmd_table")

    p = sub.add_parser("yb", help="expand a Yang-Baxter element")
    common(p, "cmd_yb", with_family=True)
    p.add_argument("mu", help="permutation window, e.g. 35142")
    p.add_argument("--shorthand", action="store_true", help="factor list as (ji)Tk")
    p.add_argument("--q1", help="specialize q1 to this expression")
    p.add_argument("--q2", help="specialize q2 to this expression")
    p.add_argument("--spectral", help="comma-separated expressions for u1..un")

    p = sub.add_parser("gram", help="pairing matrix of the Yang-Baxter basis")
    common(p, "cmd_gram", with_family=True)
    p.add_argument("--spectral", help="comma-separated expressions for u1..un")
    p.add_argument("--force", action="store_true", help="lift the symbolic rank guard")

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(handler="cmd_verify")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to this file")
    return parser


# ----------------------------------------------------------------------
# rendering helpers


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each text chunk to stdout, and to the file ``out`` when one is
    given, as it arrives, so no output is held whole.  The file is opened
    before the first chunk, so a path that cannot be opened prints
    nothing."""
    try:
        fh = open(out, "w", encoding="utf-8") if out else None
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    with fh or contextlib.nullcontext():
        for chunk in chunks:
            sys.stdout.write(chunk)
            if fh:
                fh.write(chunk)


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """The chunks of text made of ``lines``, each ended by a newline."""
    return (f"{line}\n" for line in lines)


def _guard_rank(command: str, n: int) -> None:
    if n < 1:
        raise ConfigError(f"{command}: rank must be at least 1, got n={n}")


def _spectral_from(arg: str | None, n: int) -> list[RationalFunction] | None:
    if arg is None:
        return None
    parts = [p.strip() for p in arg.split(",")]
    if len(parts) != n:
        raise ConfigError(f"--spectral needs {n} comma-separated expressions")
    return [parse_scalar(p) for p in parts]


def _table_lines(table: dict, label: str, fmt: str, n: int) -> Iterator[str]:
    """The table as text chunks, one entry at a time.  The JSON object is
    written piece by piece in the bytes of ``json.dumps(payload,
    sort_keys=True)``: the entries by their key str(mu), then "kind" and
    "n"."""
    perms = all_permutations(n)
    if fmt == "json":
        yield '{"entries": {'
        for i, mu in enumerate(sorted(perms, key=str)):
            entry = json.dumps(poly_to_json(table[mu]), sort_keys=True)
            yield f'{", " if i else ""}{json.dumps(str(mu))}: {entry}'
        yield f'}}, "kind": {json.dumps(label.lower())}, "n": {json.dumps(n)}}}\n'
    elif fmt == "latex":
        yield from _lines(f"{label}_{{{mu}}} = {format_poly(table[mu], latex=True)}"
                          for mu in perms)
    else:
        yield from _lines(f"{mu}: {table[mu]}" for mu in perms)


def cmd_table(args) -> int:
    if args.command == "schubert":
        table, label = schubert_table(args.n), "X"
    else:
        table, label = grothendieck_table(args.n), "G"
    _emit(_table_lines(table, label, args.format, args.n), args.out)
    return 0


def _factor_shorthand(mu: Permutation, latex: bool) -> list[str]:
    out = []
    for box in rothe_diagram(mu):
        k = f"T_{box.generator}" if latex else f"T{box.generator}"
        out.append(f"({mu(box.i)}{mu(box.j)}){k}")
    return out


def cmd_yb(args) -> int:
    _guard_rank("yb", args.n)
    check_rank(args.n)
    try:
        mu = Permutation.from_string(args.mu)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if mu.n != args.n:
        raise ConfigError(f"permutation {args.mu} is not in S_{args.n}")
    alg = algebra(args.family, args.n)
    u = _spectral_from(args.spectral, args.n)
    y = yb_element(alg, mu, u)
    subs = {q: parse_scalar(v) for q, v in (("q1", args.q1), ("q2", args.q2)) if v}
    coeffs = {
        nu: substitute(c, subs) if subs else c for nu, c in y.coeffs.items()
    }
    perms = sorted(coeffs, key=Permutation.sort_key)
    factors = _factor_shorthand(mu, args.format == "latex") if args.shorthand else None
    if args.format == "json":
        payload = {
            "family": args.family,
            "n": args.n,
            "mu": str(mu),
            "terms": {str(nu): rf_to_json(coeffs[nu]) for nu in perms},
        }
        if factors is not None:
            payload["factors"] = factors
        _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
        return 0
    latex = args.format == "latex"
    lines = [f"# Y_{mu} in family {args.family}, n={args.n}"]
    if factors is not None:
        lines.append("factors: " + " ".join(factors))
    for nu in perms:
        body = format_rf(coeffs[nu], latex=latex)
        lines.append(f"T_{{{nu}}}: {body}" if latex else f"{nu}: {body}")
    _emit(_lines(lines), args.out)
    return 0


def cmd_gram(args) -> int:
    _guard_rank("gram", args.n)
    check_rank(args.n)
    # verify orthogonality builds the same matrices, up to the same rank
    limit = SUITES["orthogonality"].limits[args.family]
    if args.n > limit and not args.force:
        raise ConfigError(
            f"family {args.family} is guarded at n <= {limit} (use --force)"
        )
    alg = algebra(args.family, args.n)
    u = _spectral_from(args.spectral, args.n)
    g = gram_matrix(alg, u)
    violations = [
        f"<Y_{mu}, Y_{nu}> = {val}"
        for (mu, nu), val in orthogonality_violations(alg, g, u).items()
    ]
    perms = all_permutations(args.n)
    if args.format == "json":
        payload = {
            "family": args.family,
            "n": args.n,
            "entries": {
                f"{mu},{nu}": rf_to_json(g[(mu, nu)])
                for mu in perms
                for nu in perms
                if not g[(mu, nu)].is_zero
            },
            "orthogonal": not violations,
        }
        _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
    else:
        latex = args.format == "latex"
        lines = [f"# pairing matrix, family {args.family}, n={args.n}"]
        for mu in perms:
            for nu in perms:
                val = g[(mu, nu)]
                if not val.is_zero:
                    lines.append(f"{mu},{nu}: {format_rf(val, latex=latex)}")
        lines.append("orthogonality: " + ("ok" if not violations else "VIOLATION"))
        lines.extend(f"  {v}" for v in violations)
        _emit(_lines(lines), args.out)
    return 0 if not violations else 3


# ----------------------------------------------------------------------
# verification suites


def yb_element_along_word(alg, word, u):
    """Y built along an explicit reduced word: the full-word cross-check (tests)."""
    return yb_product(alg, u, word_steps(alg.n, word))


def _run_yang_leading(ranks, families, seed) -> list[CheckReport]:
    reports = [verify_yang_leading_terms(ranks["exhaustive"])]
    if ranks["20 samples"] > ranks["exhaustive"]:  # a rank not covered exhaustively
        reports.append(verify_yang_leading_terms(ranks["20 samples"], samples=20, seed=seed))
    return reports


class Suite(NamedTuple):
    """One verification suite; see :data:`SUITES`."""

    limits: dict[str, int]
    families: tuple[str, ...] | None
    run: Callable[[dict[str, int], Sequence[str], int], list[CheckReport]]
    least: int = 1


# Every verification suite, in the order ``verify all`` runs them.
# * ``limits`` maps each part of the suite to the largest rank it runs at:
#   "" is the whole suite, and a family name is that family's part.
# * ``families`` run when ``--family`` is absent; None marks a suite that
#   takes no ``--family``.
# * ``run(ranks, families, seed)`` returns the reports, given each part's rank.
# * ``least`` is the smallest rank the suite runs at.
# Raising a suite's rank is an edit to its entry here and nowhere else; the
# transitions and cohomology-basis run up to MAX_RANK, the one bound of every
# enumeration of S_n.
SUITES: dict[str, Suite] = {
    "relations": Suite(
        {"": 5},
        tuple(FAMILIES),
        lambda r, fams, seed: [check_relations(f, r[""], seed=seed) for f in fams],
    ),
    # the equation lives on generators 1 and 2
    "ybe": Suite(
        {"": 4},
        FACTOR_FAMILIES,
        lambda r, fams, seed: [verify_ybe(algebra(f, r[""])) for f in fams],
        least=3,
    ),
    "word-independence": Suite(
        {"": 5},
        FACTOR_FAMILIES,
        lambda r, fams, seed: [verify_word_independence(algebra(f, r[""])) for f in fams],
    ),
    "rothe": Suite(
        {"": 4},
        FACTOR_FAMILIES,
        lambda r, fams, seed: [verify_rothe(algebra(f, r[""])) for f in fams],
    ),
    "orthogonality": Suite(
        # gram refuses a larger symbolic matrix without --force
        {"partial": 4, "sigma": 4, "pibar": 4, "T": 3},
        ("partial", "sigma", "pibar", "T"),
        lambda r, fams, seed: [verify_orthogonality(algebra(f, r[f])) for f in fams],
    ),
    "schubert-transition": Suite(
        {"": MAX_RANK}, None, lambda r, fams, seed: [verify_schubert_transition(r[""])[1]]
    ),
    "grothendieck-transition": Suite(
        {"": MAX_RANK},
        None,
        lambda r, fams, seed: [verify_grothendieck_transition(r[""])[1]],
    ),
    "yang-leading": Suite({"exhaustive": 3, "20 samples": 4}, None, _run_yang_leading),
    "newton": Suite(
        {"": 3},
        None,
        lambda r, fams, seed: [verify_newton_interpolation(r[""], seed=seed)],
    ),
    "normal-ordering": Suite(
        {"": 3},
        None,
        lambda r, fams, seed: [verify_normal_ordering(r[""], seed=seed)],
    ),
    "appendix": Suite({"": 4}, None, lambda r, fams, seed: verify_appendix(r[""], seed=seed)),
    "cohomology-basis": Suite(
        {"": MAX_RANK}, None, lambda r, fams, seed: [verify_cohomology_basis(r[""])]
    ),
    "degeneration": Suite(
        {"": 3}, None, lambda r, fams, seed: [verify_groth_to_schubert_degeneration(r[""])]
    ),
}


def run_suite(suite: str, n: int, family: str | None, seed: int) -> list[CheckReport]:
    """The reports of one suite of :data:`SUITES`, or of all of them.

    Each part runs at ``n`` clamped between the suite's least rank and the
    part's limit; stderr says so when any part runs at another rank.
    Standard output carries only the reports.
    """
    _guard_rank(f"verify {suite}", n)
    if suite == "all":
        return [
            report
            for name, entry in SUITES.items()
            for report in run_suite(name, n, family if entry.families else None, seed)
        ]
    entry = SUITES[suite]
    if entry.families is None:
        if family is not None:
            raise ConfigError(f"verify {suite} takes no --family")
        families = ()
    elif family is None:
        families = entry.families
    elif family in entry.families:
        families = (family,)
    else:
        raise ConfigError(f"verify {suite}: family {family} has no Yang-Baxter factor")
    ranks = {
        part: max(entry.least, min(n, limit))
        for part, limit in entry.limits.items()
        if part not in FAMILIES or part in families
    }
    if any(r != n for r in ranks.values()):
        used = ", ".join(f"n={r} ({part})" if part else f"n={r}" for part, r in ranks.items())
        print(f"verify {suite}: asked for n={n}, runs at {used}", file=sys.stderr)
    return entry.run(ranks, families, seed)


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.n, args.family, args.seed)
    lines = [line for r in reports for line in r.lines()]
    ok = all(r.passed for r in reports)
    lines.append(f"verify {args.suite}: " + ("PASS" if ok else "FAIL"))
    _emit(_lines(lines), args.out)
    return 0 if ok else 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    # Join each expression flag to its value: argparse takes -2*u1 for an option.
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--spectral", "--q1", "--q2"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[args.handler](args)
    except (ConfigError, YBHeckeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
