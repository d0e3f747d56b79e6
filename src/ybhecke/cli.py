"""Command-line interface: compute, verify and export everything.

Subcommands:

* ``schubert`` / ``grothendieck`` print the full polynomial tables,
* ``yb`` expands a Yang-Baxter element on the standard basis (optionally
  showing the Rothe factor sequence),
* ``gram`` prints the pairing matrix and checks orthogonality,
* ``verify`` runs one of the named verification suites; a suite guarded
  below the rank asked for runs at its guard and says so on stderr.

Exit codes: 0 success, 2 usage or configuration error, 3 a mathematical
verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import YBHeckeError
from .hecke import (
    FACTOR_FAMILIES,
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
from .permutations import (
    Permutation,
    all_permutations,
    all_reduced_words,
    rothe_diagram,
)
from .poly import RationalFunction, format_rf, substitute
from .report import CheckReport
from .schubert import (
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

SUITES = (
    "relations",
    "ybe",
    "word-independence",
    "rothe",
    "orthogonality",
    "schubert-transition",
    "grothendieck-transition",
    "yang-leading",
    "newton",
    "normal-ordering",
    "appendix",
    "cohomology-basis",
    "degeneration",
    "all",
)
# The suites that run operator families and so read ``verify --family``.
FAMILY_SUITES = ("relations", "ybe", "word-independence", "rothe", "orthogonality")


class ConfigError(Exception):
    """A bad flag combination; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybhecke",
        description="Exact Yang-Baxter bases of type-A Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_family=False):
        p.add_argument("-n", type=int, required=True, help="rank of the symmetric group")
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        p.add_argument("--out", help="also write the output to this file")
        if with_family:
            p.add_argument("--family", choices=FACTOR_FAMILIES, default="T")

    p = sub.add_parser("schubert", help="double Schubert polynomial table")
    common(p)
    p = sub.add_parser("grothendieck", help="double Grothendieck polynomial table")
    common(p)

    p = sub.add_parser("yb", help="expand a Yang-Baxter element")
    common(p, with_family=True)
    p.add_argument("mu", help="permutation window, e.g. 35142")
    p.add_argument("--basis", choices=("standard", "rothe"), default="standard")
    p.add_argument("--shorthand", action="store_true", help="factor list as (ji)Tk")
    p.add_argument("--q1", help="specialize q1 to this expression")
    p.add_argument("--q2", help="specialize q2 to this expression")
    p.add_argument("--spectral", help="comma-separated expressions for u1..un")

    p = sub.add_parser("gram", help="pairing matrix of the Yang-Baxter basis")
    common(p, with_family=True)
    p.add_argument("--spectral", help="comma-separated expressions for u1..un")
    p.add_argument("--force", action="store_true", help="lift the symbolic rank guard")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to this file")
    return parser


# ----------------------------------------------------------------------
# rendering helpers


def _perm_key(mu: Permutation):
    return mu.sort_key()


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spectral_from(arg: str | None, n: int) -> list[RationalFunction] | None:
    if arg is None:
        return None
    parts = [p.strip() for p in arg.split(",")]
    if len(parts) != n:
        raise ConfigError(f"--spectral needs {n} comma-separated expressions")
    return [parse_scalar(p) for p in parts]


def _table_lines(table, label: str, fmt: str, n: int) -> list[str]:
    perms = sorted(table.entries, key=_perm_key)
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
            lines.append(f"{label}_{{{mu}}} = {format_rf(RationalFunction(table[mu]), latex=True)}")
        else:
            lines.append(f"{mu}: {table[mu]}")
    return lines


def cmd_table(args, which: str) -> int:
    table = schubert_table(args.n) if which == "schubert" else grothendieck_table(args.n)
    label = "X" if which == "schubert" else "G"
    _emit(_table_lines(table, label, args.format, args.n), args.out)
    return 0


def _factor_shorthand(mu: Permutation, latex: bool) -> list[str]:
    out = []
    for box in rothe_diagram(mu).boxes:
        k = f"T_{box.generator}" if latex else f"T{box.generator}"
        out.append(f"({mu(box.i)}{mu(box.j)}){k}")
    return out


def cmd_yb(args) -> int:
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
    perms = sorted(coeffs, key=_perm_key)
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


def _gram_limit(family: str) -> int:
    """The largest rank at which a symbolic pairing matrix of ``family`` is
    built: ``gram`` refuses a larger one without ``--force``, and ``verify
    orthogonality`` runs at it."""
    return 3 if family == "T" else 4


def cmd_gram(args) -> int:
    limit = _gram_limit(args.family)
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
    perms = sorted({k[0] for k in g}, key=_perm_key)
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


def _factor_families(
    suite: str, family: str | None, default: Sequence[str] = FACTOR_FAMILIES
) -> Sequence[str]:
    """The families a suite of Yang-Baxter factors runs: ``family`` alone if
    given, else ``default``."""
    if family is None:
        return default
    if family not in FACTOR_FAMILIES:
        raise ConfigError(f"verify {suite}: family {family} has no Yang-Baxter factor")
    return (family,)


def _suite_orthogonality(n: int, family: str | None) -> list[CheckReport]:
    families = _factor_families(
        "orthogonality", family, ("partial", "sigma", "pibar", "T")
    )
    ranks = {fam: min(n, _gram_limit(fam)) for fam in families}
    _note_ranks("orthogonality", n, ranks)
    reports = []
    for fam, rank in ranks.items():
        alg = algebra(fam, rank)
        u = symbolic_spectral(rank)
        report = CheckReport(name=f"orthogonality[{fam}, n={rank}]")
        g = gram_matrix(alg, u)
        bad = orthogonality_violations(alg, g, u)
        for mu, nu in g:
            report.record(
                (mu, nu) not in bad, lambda: f"<Y_{mu}, Y_{nu}> = {bad[(mu, nu)]}"
            )
        reports.append(report)
    return reports


def _suite_ybe(rank: int, families: Sequence[str]) -> list[CheckReport]:
    u, v, w = (RationalFunction.variable(f"u{i}") for i in (1, 2, 3))
    reports = []
    for fam in families:
        alg = algebra(fam, rank)
        report = CheckReport(name=f"ybe[{fam}]")
        lhs = (
            elementary_factor(alg, 1, u, v)
            * elementary_factor(alg, 2, u, w)
            * elementary_factor(alg, 1, v, w)
        )
        rhs = (
            elementary_factor(alg, 2, v, w)
            * elementary_factor(alg, 1, u, w)
            * elementary_factor(alg, 2, u, v)
        )
        report.record(lhs == rhs, "Yang-Baxter equation fails")
        reports.append(report)
    return reports


def yb_element_along_word(alg, word, u):
    """Y built along an explicit reduced word (used by word-independence checks)."""
    return yb_product(alg, u, word_steps(alg.n, word))


def _suite_word_independence(rank: int, families: Sequence[str]) -> list[CheckReport]:
    reports = []
    for fam in families:
        alg = algebra(fam, rank)
        u = symbolic_spectral(rank)
        report = CheckReport(name=f"word-independence[{fam}, n={rank}]")
        for mu in all_permutations(rank):
            values = [
                yb_element_along_word(alg, word, u) for word in all_reduced_words(mu)
            ]
            report.record(
                all(v == values[0] for v in values[1:]),
                lambda: f"mu={mu}: reduced words disagree",
            )
        reports.append(report)
    return reports


def _suite_rothe(rank: int, families: Sequence[str]) -> list[CheckReport]:
    reports = []
    for fam in families:
        alg = algebra(fam, rank)
        report = CheckReport(name=f"rothe[{fam}, n={rank}]")
        basis = yb_basis(alg)
        for mu, y in basis.items():
            report.record(
                yb_element_rothe(alg, mu) == y, lambda: f"mu={mu}: rothe product differs"
            )
        reports.append(report)
    return reports


def _note_ranks(suite: str, n: int, ranks: dict[str, int]) -> None:
    """Say on stderr when a suite runs below the rank asked for.

    ``ranks`` maps each part of the suite ("" for the whole suite) to the
    rank it runs at.  Standard output carries only the reports.
    """
    if min(ranks.values()) < n:
        used = ", ".join(f"n={r} ({part})" if part else f"n={r}" for part, r in ranks.items())
        print(f"verify {suite}: asked for n={n}, runs at {used}", file=sys.stderr)


def _rank(suite: str, n: int, limit: int) -> int:
    """The rank of a suite guarded at ``limit``, noting a clamp on stderr."""
    rank = min(n, limit)
    _note_ranks(suite, n, {"": rank})
    return rank


def run_suite(suite: str, n: int, family: str | None, seed: int) -> list[CheckReport]:
    if family is not None and suite not in FAMILY_SUITES + ("all",):
        raise ConfigError(f"verify {suite} takes no --family")
    if suite == "relations":
        fams = [family] if family else list(FAMILIES)
        rank = _rank(suite, n, 5)
        return [check_relations(f, rank, probes=4, seed=seed) for f in fams]
    if suite == "ybe":
        fams = _factor_families(suite, family)
        return _suite_ybe(max(3, _rank(suite, n, 4)), fams)
    if suite == "word-independence":
        fams = _factor_families(suite, family)
        return _suite_word_independence(_rank(suite, n, 4), fams)
    if suite == "rothe":
        fams = _factor_families(suite, family)
        return _suite_rothe(_rank(suite, n, 4), fams)
    if suite == "orthogonality":
        return _suite_orthogonality(n, family)
    if suite == "schubert-transition":
        return [verify_schubert_transition(_rank(suite, n, 5))[1]]
    if suite == "grothendieck-transition":
        return [verify_grothendieck_transition(_rank(suite, n, 5))[1]]
    if suite == "yang-leading":
        ranks = {"exhaustive": min(n, 3)}
        if n >= 4:
            ranks["20 samples"] = 4
        _note_ranks(suite, n, ranks)
        reports = [verify_yang_leading_terms(ranks["exhaustive"])]
        if n >= 4:
            reports.append(verify_yang_leading_terms(4, samples=20, seed=seed))
        return reports
    if suite == "newton":
        return [verify_newton_interpolation(_rank(suite, n, 3), probes=10, seed=seed)]
    if suite == "normal-ordering":
        return [verify_normal_ordering(_rank(suite, n, 3), probes=10, seed=seed)]
    if suite == "appendix":
        rank = _rank(suite, n, 4)
        shapes = [(1,) * rank, (rank,)]
        if rank == 4:
            shapes.append((2, 2))
        reports = []
        for shape in shapes:
            reports.append(verify_appendix_factorizations(shape, "qpow", 5, seed))
            reports.append(verify_appendix_factorizations(shape, "linear", 5, seed))
        return reports
    if suite == "cohomology-basis":
        return [verify_cohomology_basis(_rank(suite, n, 4))]
    if suite == "degeneration":
        return [verify_groth_to_schubert_degeneration(_rank(suite, n, 3))]
    if suite == "all":
        reports = []
        for name in SUITES[:-1]:
            fam = family if name in FAMILY_SUITES else None
            reports.extend(run_suite(name, n, fam, seed))
        return reports
    raise ConfigError(f"unknown suite {suite!r}")


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
        if args.command == "schubert":
            return cmd_table(args, "schubert")
        if args.command == "grothendieck":
            return cmd_table(args, "grothendieck")
        if args.command == "yb":
            return cmd_yb(args)
        if args.command == "gram":
            return cmd_gram(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except YBHeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
