"""Exact checks of workload outputs against references recorded once.

Nothing here relies on ybhecke's arithmetic or equality.  Values are read
from the package's documented output forms (text tables, the JSON form of
``serialize``) into the small Laurent-polynomial type below, and rational
functions are compared by cross-multiplying numerators and denominators.
A change of normal form in the package (another denominator, other term
order) therefore still passes, and a wrong value fails whatever
``RationalFunction.__eq__`` says.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A polynomial is a dict from monomials to nonzero Fractions; a monomial is
# a sorted tuple of (variable, nonzero exponent) pairs.
Poly = dict


def _mono(exps) -> tuple:
    return tuple(sorted((v, e) for v, e in exps if e))


def _add_term(p: Poly, m: tuple, c: Fraction) -> None:
    c = p.get(m, 0) + c
    if c:
        p[m] = c
    else:
        p.pop(m, None)


def poly_from_json(items) -> Poly:
    """The ``serialize.poly_to_json`` list form as a polynomial."""
    p: Poly = {}
    for item in items:
        _add_term(p, _mono(item.get("monomial", {}).items()), Fraction(item["coeff"]))
    return p


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        e1 = dict(m1)
        for m2, c2 in q.items():
            e = dict(e1)
            for v, k in m2:
                e[v] = e.get(v, 0) + k
            _add_term(out, _mono(e.items()), c1 * c2)
    return out


def rf_equal(a: dict, b: dict) -> bool:
    """Equality of two rational functions in the ``rf_to_json`` form."""
    na, da = poly_from_json(a["num"]), poly_from_json(a["den"])
    nb, db = poly_from_json(b["num"]), poly_from_json(b["den"])
    if not da or not db:
        return False
    if da == db:
        return na == nb
    return poly_mul(na, db) == poly_mul(nb, da)


def specialize_q(items, q1: int, q2: int) -> Poly:
    """Substitute integers for the polynomial parameters q1 and q2."""
    p: Poly = {}
    for item in items:
        exps = dict(item.get("monomial", {}))
        c = Fraction(item["coeff"]) * Fraction(q1) ** exps.pop("q1", 0)
        c *= Fraction(q2) ** exps.pop("q2", 0)
        if c:
            _add_term(p, _mono(exps.items()), c)
    return p


def rf_equal_specialized(t_coeff: dict, target: dict, q1: int, q2: int) -> bool:
    """Whether ``t_coeff`` at (q1, q2) equals ``target`` (q-free).

    False when the denominator of ``t_coeff`` vanishes at the point.
    """
    n, d = specialize_q(t_coeff["num"], q1, q2), specialize_q(t_coeff["den"], q1, q2)
    nb, db = poly_from_json(target["num"]), poly_from_json(target["den"])
    if not d or not db:
        return False
    return poly_mul(n, db) == poly_mul(nb, d)


# ----------------------------------------------------------------------
# text tables and digests

_TERM = re.compile(r"^(?:(?P<coeff>\d+(?:/\d+)?)(?:\*|$))?(?P<mono>.*)$")


def poly_from_text(text: str) -> Poly:
    """Parse the text form of a polynomial: ``x1^2 - 2*x1*y1 + 3/2*y1^-1``."""
    p: Poly = {}
    text = text.strip()
    if text == "0":
        return p
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, chunk in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if chunk == "+" else -1
            continue
        m = _TERM.match(chunk)
        coeff = Fraction(m.group("coeff") or 1)
        exps = []
        if m.group("mono"):
            for factor in m.group("mono").split("*"):
                v, _, e = factor.partition("^")
                exps.append((v, int(e or 1)))
        _add_term(p, _mono(exps), sign * coeff)
    return p


def poly_digest(p: Poly) -> str:
    """Digest of a polynomial's canonical form, independent of term order."""
    canon = sorted((list(map(list, m)), str(c)) for m, c in p.items())
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def table_text_digests(text: str) -> dict[str, str]:
    """Digests of every ``mu: poly`` line of a text table."""
    out = {}
    for line in text.splitlines():
        mu, _, body = line.partition(": ")
        out[mu] = poly_digest(poly_from_text(body))
    return out


def table_json_digests(text: str) -> dict[str, str]:
    entries = json.loads(text)["entries"]
    return {mu: poly_digest(poly_from_json(items)) for mu, items in entries.items()}


# ----------------------------------------------------------------------
# verify reports

_REPORT = re.compile(r"^(?P<name>\S.*): (?P<status>PASS|FAIL) \((?P<checks>\d+) checks")
_RANK = re.compile(r"n=(\d+)")
_SHAPE = re.compile(r"shape=\(([\d, ]+)\)")


def parse_verify_output(text: str, suite: str) -> tuple[list[tuple[str, bool, int]], bool]:
    """The (name, passed, checks) of each report, and whether the closing
    ``verify <suite>: PASS`` line is there."""
    reports = []
    for line in text.splitlines():
        m = _REPORT.match(line)
        if m:
            reports.append((m["name"], m["status"] == "PASS", int(m["checks"])))
    closing = text.rstrip("\n").endswith(f"verify {suite}: PASS")
    return reports, closing


def report_rank(name: str) -> int:
    """The rank a report states in its name: ``n=k``, or the size of a
    Young shape; 0 when the name states none (``ybe[sigma]``)."""
    m = _RANK.search(name)
    if m:
        return int(m[1])
    m = _SHAPE.search(name)
    if m:
        return sum(int(x) for x in m[1].split(",") if x.strip())
    return 0


# ----------------------------------------------------------------------
# references


def load_reference(name: str):
    path = REFERENCE_DIR / name
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(path.read_text(encoding="utf-8"))


def program_seed(seed: int, reference: dict) -> int:
    """The ``--seed`` verify-n4 passes to the CLI: the benchmark seed, folded
    into the range of seeds whose check counts were recorded."""
    return seed % len(reference["seeds"])


def check_verify_n4(ops, seed: int, reference: dict) -> None:
    expected = reference["seeds"][str(program_seed(seed, reference))]
    for op in ops:
        if op.error:
            op.notes.append(op.error)
            continue
        reports, closing = parse_verify_output(op.output, op.name)
        total = sum(r[2] for r in reports)
        if op.exit_code != 0:
            op.notes.append(f"exit code {op.exit_code}")
        if not closing or not reports or not all(r[1] for r in reports):
            op.notes.append("a report is not PASS")
        if total != expected[op.name]:
            op.notes.append(f"{total} checks, expected {expected[op.name]}")
        op.ok = not op.notes
        op.checks = total if op.ok else 0


def check_tables_n5(ops, reference: dict) -> None:
    digests = {"schubert": table_text_digests, "grothendieck": table_json_digests}
    for op in ops:
        if op.error:
            op.notes.append(op.error)
            continue
        if op.exit_code != 0:
            op.notes.append(f"exit code {op.exit_code}")
        if op.name in digests:
            want = reference[op.name]
            try:
                got = digests[op.name](op.output)
            except (ValueError, KeyError, AttributeError) as exc:
                op.notes.append(f"unreadable output: {exc}")
                continue
            wrong = sorted(mu for mu in want if got.get(mu) != want[mu])
            extra = sorted(set(got) - set(want))
            if wrong or extra:
                op.notes.append(f"entries differ: {(wrong + extra)[:5]}")
        else:
            report = op.output
            if not report.passed:
                op.notes.append("transition report is not PASS")
            if report.checks != reference["transition_checks"]:
                op.notes.append(
                    f"{report.checks} checks, expected {reference['transition_checks']}"
                )
            op.checks = report.checks
        op.ok = not op.notes
        if not op.ok:
            op.checks = 0


def element_to_json(h) -> dict[str, dict]:
    """A Hecke element's coefficients in the package's JSON form."""
    from ybhecke.serialize import rf_to_json

    return {str(mu): rf_to_json(c) for mu, c in h.coeffs.items()}


def check_element(got: dict, want: dict) -> list[str]:
    """Differences between two elements in JSON form (empty when equal)."""
    if set(got) != set(want):
        return [f"support differs: {sorted(set(got) ^ set(want))[:5]}"]
    wrong = sorted(nu for nu in want if not rf_equal(got[nu], want[nu]))
    return [f"coefficients differ at {wrong[:5]}"] if wrong else []


def check_element_by_pibar(got: dict, mu: str) -> list[str]:
    """Check Y_mu of family T through q1 = 0, q2 = -1, which maps it onto
    Y_mu of family pibar (a = -1, b = 0, c(u, v) = 1 - v/u)."""
    from ybhecke.hecke import algebra, yb_element
    from ybhecke.permutations import Permutation

    want = element_to_json(yb_element(algebra("pibar", 5), Permutation.from_string(mu)))
    wrong = sorted(
        nu
        for nu in set(got) | set(want)
        if not rf_equal_specialized(
            got.get(nu, {"num": [], "den": [{"coeff": "1"}]}),
            want.get(nu, {"num": [], "den": [{"coeff": "1"}]}),
            0,
            -1,
        )
    )
    return [f"pibar specialisation differs at {wrong[:5]}"] if wrong else []


def check_yb_generic_s5(ops, reference: dict) -> None:
    for op in ops:
        if op.error:
            op.notes.append(op.error)
            continue
        got = element_to_json(op.output)
        want = reference["elements"].get(op.name)
        if want is not None:
            op.notes.extend(check_element(got, want))
        else:
            op.notes.extend(check_element_by_pibar(got, op.name))
        op.ok = not op.notes
        op.checks = 1 if op.ok else 0
