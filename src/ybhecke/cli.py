"""Command-line interface: compute, verify and export everything.

Subcommands:

* ``schubert`` / ``grothendieck`` print the full polynomial tables,
* ``yb`` expands a Yang-Baxter element on the standard basis (optionally
  showing the Rothe factor sequence),
* ``gram`` prints the pairing matrix and checks orthogonality,
* ``verify`` runs one of the named verification suites; a suite that runs
  at another rank than the one asked for (above its guard, or below the
  least rank it needs) says so on stderr.

:data:`SUITES` is the one place that says at which ranks each suite runs,
which families it runs without ``--family`` and how it runs; ``verify``,
``verify all`` and ``gram`` all read it.

Exit codes: 0 success, 2 usage or configuration error, 3 a mathematical
verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

from .errors import YBHeckeError
from .hecke import (
    FACTOR_FAMILIES,
    _building_algebra,
    algebra,
    elementary_factor,
    gram_matrix,
    orthogonality_violations,
    symbolic_spectral,
    word_steps,
    yb_basis,
    yb_element,
    yb_element_rothe,
    yb_product,
)
from .operators import FAMILIES, check_relations
from .permutations import Permutation, all_permutations, rothe_diagram
from .poly import RationalFunction, format_poly, format_rf, substitute
from .report import CheckReport
from .schubert import (
    TABLE_MAX_RANK,
    grothendieck_table,
    schubert_table,
    verify_appendix_factorizations,
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
    p.add_argument("--basis", choices=("standard", "rothe"), default="standard")
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


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _check_rank(command: str, n: int) -> None:
    if n < 1:
        raise ConfigError(f"{command}: rank must be at least 1, got n={n}")


def _spectral_from(arg: str | None, n: int) -> list[RationalFunction] | None:
    if arg is None:
        return None
    parts = [p.strip() for p in arg.split(",")]
    if len(parts) != n:
        raise ConfigError(f"--spectral needs {n} comma-separated expressions")
    return [parse_scalar(p) for p in parts]


def _table_lines(table, label: str, fmt: str, n: int) -> list[str]:
    perms = sorted(table.entries, key=Permutation.sort_key)
    if fmt == "json":
        payload = {
            "kind": label.lower(),
            "n": n,
            "entries": {str(mu): poly_to_json(table[mu]) for mu in perms},
        }
        return [json.dumps(payload, sort_keys=True)]
    lines = []
    for mu in perms:
        if fmt == "latex":
            lines.append(f"{label}_{{{mu}}} = {format_poly(table[mu], latex=True)}")
        else:
            lines.append(f"{mu}: {table[mu]}")
    return lines


def cmd_table(args) -> int:
    if args.command == "schubert":
        table, label = schubert_table(args.n), "X"
    else:
        table, label = grothendieck_table(args.n), "G"
    _emit(_table_lines(table, label, args.format, args.n), args.out)
    return 0


def _factor_shorthand(mu: Permutation, latex: bool) -> list[str]:
    out = []
    for box in rothe_diagram(mu).boxes:
        k = f"T_{box.generator}" if latex else f"T{box.generator}"
        out.append(f"({mu(box.i)}{mu(box.j)}){k}")
    return out


def cmd_yb(args) -> int:
    _check_rank("yb", args.n)
    try:
        mu = Permutation.from_string(args.mu)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if mu.n != args.n:
        raise ConfigError(f"permutation {args.mu} is not in S_{args.n}")
    alg = algebra(args.family, args.n)
    u = _spectral_from(getattr(args, "spectral", None), args.n)
    y = yb_element(alg, mu, u)
    subs = {}
    if args.q1:
        subs["q1"] = parse_scalar(args.q1)
    if args.q2:
        subs["q2"] = parse_scalar(args.q2)
    coeffs = {
        nu: substitute(c, subs) if subs else c for nu, c in y.coeffs.items()
    }
    perms = sorted(coeffs, key=Permutation.sort_key)
    factors = None
    if args.basis == "rothe" or args.shorthand:
        factors = _factor_shorthand(mu, args.format == "latex")
    if args.format == "json":
        payload = {
            "family": args.family,
            "n": args.n,
            "mu": str(mu),
            "terms": {str(nu): rf_to_json(coeffs[nu]) for nu in perms},
        }
        if factors is not None:
            payload["factors"] = factors
        _emit([json.dumps(payload, sort_keys=True)], args.out)
        return 0
    latex = args.format == "latex"
    lines = [f"# Y_{mu} in family {args.family}, n={args.n}"]
    if factors is not None:
        lines.append("factors: " + " ".join(factors))
    for nu in perms:
        body = format_rf(coeffs[nu], latex=latex)
        lines.append(f"T_{{{nu}}}: {body}" if latex else f"{nu}: {body}")
    _emit(lines, args.out)
    return 0


def cmd_gram(args) -> int:
    _check_rank("gram", args.n)
    # verify orthogonality builds the same matrices, up to the same rank
    limit = SUITES["orthogonality"].limits[args.family]
    if args.n > limit and not args.force:
        raise ConfigError(
            f"family {args.family} is guarded at n <= {limit} (use --force)"
        )
    alg = algebra(args.family, args.n)
    u = _spectral_from(args.spectral, args.n) or symbolic_spectral(args.n)
    g = gram_matrix(alg, u)
    violations = [
        f"<Y_{mu}, Y_{nu}> = {val}"
        for (mu, nu), val in orthogonality_violations(alg, g, u).items()
    ]
    perms = sorted({k[0] for k in g}, key=Permutation.sort_key)
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
        _emit([json.dumps(payload, sort_keys=True)], args.out)
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
        _emit(lines, args.out)
    return 0 if not violations else 3


# ----------------------------------------------------------------------
# verification suites


def _per_family(template: str, check: Callable[..., None]) -> Callable[..., list[CheckReport]]:
    """The runner of a suite with one report per family, named by
    ``template``: ``check(alg, report)`` records the checks in the family's
    algebra, at the rank of the family's part or else of the whole suite."""

    def run(ranks: dict[str, int], families: Sequence[str], seed: int) -> list[CheckReport]:
        reports = []
        for fam in families:
            rank = ranks.get(fam, ranks.get(""))
            report = CheckReport(name=template.format(fam=fam, n=rank))
            check(algebra(fam, rank), report)
            reports.append(report)
        return reports

    return run


def _check_ybe(alg, report: CheckReport) -> None:
    """Y_1(u, v) Y_2(u, w) Y_1(v, w) = Y_2(v, w) Y_1(u, w) Y_2(u, v).

    Family T is compared in its one-parameter building algebra, as in
    :func:`_check_word_independence`: T'_j -> T_j/theta is an injective map
    of algebras that sends each factor there to the (q1, q2) factor, so
    equality there is the same statement.
    """
    u, v, w = (RationalFunction.variable(f"u{i}") for i in (1, 2, 3))
    y = partial(elementary_factor, _building_algebra(alg))
    lhs = y(1, u, v) * y(2, u, w) * y(1, v, w)
    rhs = y(2, v, w) * y(1, u, w) * y(2, u, v)
    report.record(lhs == rhs, "Yang-Baxter equation fails")


def yb_element_along_word(alg, word, u):
    """Y built along an explicit reduced word: the full-word cross-check (tests)."""
    return yb_product(alg, u, word_steps(alg.n, word))


def _check_word_independence(alg, report: CheckReport) -> None:
    """One check per mu: Y_mu is the same along every reduced word of mu.

    Every reduced word of mu ends in a descent j of mu, after a reduced word
    of nu = mu s_j, and :func:`~ybhecke.hecke.word_steps` gives that last
    letter the factor Y_j(u_{nu(j)}, u_{nu(j+1)}).  So if Y_nu * Y_j(...)
    equals Y_mu at every descent j, induction on the length of mu gives the
    same Y_mu along every reduced word.  :func:`~ybhecke.hecke.yb_basis`
    builds Y_mu at the first descent, so only the others are multiplied.
    Family T is compared in its one-parameter building algebra: the map to
    (q1, q2) is injective (beta = q1 q2 / theta^2), so equality there is the
    same statement.
    """
    build = _building_algebra(alg)
    u = symbolic_spectral(alg.n)
    ys = yb_basis(build, u)

    def last_letter_agrees(mu: Permutation, j: int) -> bool:
        nu = mu.times_simple(j)
        return ys[nu] * elementary_factor(build, j, u[nu(j) - 1], u[nu(j + 1) - 1]) == ys[mu]

    for mu in all_permutations(alg.n):
        report.record(
            all(last_letter_agrees(mu, j) for j in mu.descents()[1:]),
            lambda: f"mu={mu}: reduced words disagree",
        )


def _check_rothe(alg, report: CheckReport) -> None:
    for mu, y in yb_basis(alg).items():
        report.record(
            yb_element_rothe(alg, mu) == y, lambda: f"mu={mu}: rothe product differs"
        )


def _check_orthogonality(alg, report: CheckReport) -> None:
    u = symbolic_spectral(alg.n)
    g = gram_matrix(alg, u)
    bad = orthogonality_violations(alg, g, u)
    for mu, nu in g:
        report.record(
            (mu, nu) not in bad, lambda: f"<Y_{mu}, Y_{nu}> = {bad[(mu, nu)]}"
        )


def _run_yang_leading(ranks, families, seed) -> list[CheckReport]:
    reports = [verify_yang_leading_terms(ranks["exhaustive"])]
    if ranks["20 samples"] > ranks["exhaustive"]:  # a rank not covered exhaustively
        reports.append(verify_yang_leading_terms(ranks["20 samples"], samples=20, seed=seed))
    return reports


def _run_appendix(ranks, families, seed) -> list[CheckReport]:
    rank = ranks[""]
    shapes = [(1,) * rank, (rank,)] + ([(2, 2)] if rank == 4 else [])
    return [
        verify_appendix_factorizations(shape, qmode, 5, seed)
        for shape in shapes
        for qmode in ("qpow", "linear")
    ]


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
# Raising a suite's rank is an edit to its entry here and nowhere else.
SUITES: dict[str, Suite] = {
    "relations": Suite(
        {"": 5},
        tuple(FAMILIES),
        lambda r, fams, seed: [check_relations(f, r[""], probes=4, seed=seed) for f in fams],
    ),
    # the equation lives on generators 1 and 2
    "ybe": Suite({"": 4}, FACTOR_FAMILIES, _per_family("ybe[{fam}]", _check_ybe), least=3),
    "word-independence": Suite(
        {"": 5},
        FACTOR_FAMILIES,
        _per_family("word-independence[{fam}, n={n}]", _check_word_independence),
    ),
    "rothe": Suite({"": 4}, FACTOR_FAMILIES, _per_family("rothe[{fam}, n={n}]", _check_rothe)),
    "orthogonality": Suite(
        # gram refuses a larger symbolic matrix without --force
        {"partial": 4, "sigma": 4, "pibar": 4, "T": 3},
        ("partial", "sigma", "pibar", "T"),
        _per_family("orthogonality[{fam}, n={n}]", _check_orthogonality),
    ),
    "schubert-transition": Suite(
        {"": TABLE_MAX_RANK}, None, lambda r, fams, seed: [verify_schubert_transition(r[""])[1]]
    ),
    "grothendieck-transition": Suite(
        {"": TABLE_MAX_RANK},
        None,
        lambda r, fams, seed: [verify_grothendieck_transition(r[""])[1]],
    ),
    "yang-leading": Suite({"exhaustive": 3, "20 samples": 4}, None, _run_yang_leading),
    "newton": Suite(
        {"": 3},
        None,
        lambda r, fams, seed: [verify_newton_interpolation(r[""], probes=10, seed=seed)],
    ),
    "normal-ordering": Suite(
        {"": 3},
        None,
        lambda r, fams, seed: [verify_normal_ordering(r[""], probes=10, seed=seed)],
    ),
    "appendix": Suite({"": 4}, None, _run_appendix),
    "cohomology-basis": Suite(
        {"": 4}, None, lambda r, fams, seed: [verify_cohomology_basis(r[""])]
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
    _check_rank(f"verify {suite}", n)
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
    lines = []
    for r in reports:
        lines.extend(r.lines())
    ok = all(r.passed for r in reports)
    lines.append(f"verify {args.suite}: " + ("PASS" if ok else "FAIL"))
    _emit(lines, args.out)
    return 0 if ok else 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
