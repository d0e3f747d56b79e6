"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/selftest.py

They show that the checker rejects a wrong value or check count while it
accepts another normal form of a right value, that a missed deadline is a
quick, named failure, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402
from run import summarize  # noqa: E402

YB_REF = checker.load_reference("yb_generic_s5.json.gz")
VERIFY_REF = checker.load_reference("verify_n4.json")


def _element(mu="25431"):
    return copy.deepcopy(YB_REF["elements"][mu])


def _times(rf: dict, factor: list) -> dict:
    """The same rational function with numerator and denominator both
    multiplied by ``factor`` (another normal form of one value)."""
    f = checker.poly_from_json(factor)

    def scaled(items):
        p = checker.poly_mul(checker.poly_from_json(items), f)
        return [{"coeff": str(c), "monomial": dict(m)} for m, c in p.items()]

    return {"num": scaled(rf["num"]), "den": scaled(rf["den"])}


def test_reference_has_the_recorded_failures():
    assert YB_REF["missed"] == ["53412", "45321", "53421", "54231", "54312", "54321"]
    assert len(YB_REF["elements"]) == 23
    assert sum(VERIFY_REF["seeds"]["0"].values()) == 3383
    assert [sum(VERIFY_REF["seeds"][s].values()) for s in "127"] == [3385, 3384, 3382]


def test_checker_accepts_another_normal_form():
    want = _element()
    got = copy.deepcopy(want)
    theta = [{"coeff": "1", "monomial": {"q1": 1}}, {"coeff": "1", "monomial": {"q2": 1}}]
    for nu in got:
        got[nu] = _times(got[nu], theta)
    assert got != want
    assert checker.check_element(got, want) == []


def test_checker_rejects_one_perturbed_coefficient():
    want = _element()
    got = copy.deepcopy(want)
    nu = sorted(got)[len(got) // 2]
    term = got[nu]["num"][0]
    term["coeff"] = str(checker.Fraction(term["coeff"]) + 1)
    notes = checker.check_element(got, want)
    assert notes and nu in notes[0]


def test_checker_rejects_a_missing_coefficient():
    want = _element()
    got = copy.deepcopy(want)
    got.pop(sorted(got)[0])
    assert checker.check_element(got, want)


def test_pibar_specialisation_checks_a_t_element():
    got = _element("35412")
    assert checker.check_element_by_pibar(got, "35412") == []
    nu = sorted(got)[-1]
    got[nu]["num"][0]["coeff"] = str(checker.Fraction(got[nu]["num"][0]["coeff"]) * 3)
    assert checker.check_element_by_pibar(got, "35412")


def _verify_op(suite: str, checks: int) -> workloads.Op:
    text = f"{suite}[x, n=4]: PASS ({checks} checks)\nverify {suite}: PASS\n"
    return workloads.Op(suite, exit_code=0, output=text)


def test_checker_rejects_a_wrong_check_count():
    expected = VERIFY_REF["seeds"]["0"]
    ops = [_verify_op(s, expected[s]) for s in workloads.VERIFY_SUITES]
    ops[3] = _verify_op(ops[3].name, expected[ops[3].name] - 1)
    checker.check_verify_n4(ops, 0, VERIFY_REF)
    assert [op.ok for op in ops] == [i != 3 for i in range(len(ops))]
    assert "expected" in ops[3].notes[0] and ops[3].checks == 0


def test_checker_rejects_a_failed_report():
    expected = VERIFY_REF["seeds"]["0"]
    op = _verify_op("ybe", expected["ybe"])
    op.output = op.output.replace("PASS (", "FAIL (")
    checker.check_verify_n4([op], 0, VERIFY_REF)
    assert not op.ok


def test_text_and_json_tables_give_the_same_digests():
    out = {
        fmt: workloads._cli(["grothendieck", "-n", "3", "--format", fmt], workloads._no_span("", ""))
        for fmt in ("text", "json")
    }
    assert out["text"][0] == out["json"][0] == 0
    text = checker.table_text_digests(out["text"][1])
    assert text == checker.table_json_digests(out["json"][1])
    assert len(text) == 6


def test_tiny_deadline_fails_53412_quickly():
    code = (
        "import json, sys; sys.path[:0] = ['perfbench', 'src']; import checker, workloads; "
        "from hostspeed import HostProbe; "
        "ops = workloads.run_yb_generic_s5(HostProbe(), ('53412',), 0.05); "
        "checker.check_yb_generic_s5(ops, checker.load_reference('yb_generic_s5.json.gz')); "
        "print(json.dumps([(op.name, op.missed, op.ok, op.seconds) for op in ops]))"
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 20
    ((name, missed, ok, seconds),) = json.loads(proc.stdout)
    assert name == "53412" and missed and not ok
    assert seconds < 2


def test_failed_ops_count_as_slowest():
    passes = [{
        "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0, "latencies": [0.1, 0.2, None],
        "ops": [{"ok": True, "checks": 1}, {"ok": True, "checks": 1}, {"ok": False, "checks": 0}],
    }]
    metrics = summarize(passes, 0.1)
    assert metrics["op_p50_s"] == 0.2
    assert metrics["ok_ratio"] == 2 / 3 and metrics["checks_done"] == 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_closes_spans_a_deadline_cut_off():
    from tracer import Tracer

    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    outer = t.enter("hecke.yb_element", "L2")
    t.enter("poly.gcd", "L0")  # its exit never runs
    t.exit(outer)
    assert t.stack == [] and t.calls["poly.gcd"] == t.calls["hecke.yb_element"] == 1
    assert t.layer_self["L0"] + t.layer_self["L2"] == t.seconds["hecke.yb_element"]


def test_tracer_install_is_undone(monkeypatch):
    import tracer
    from ybhecke import hecke, poly

    # A target the package no longer has (after a refactor) is skipped,
    # and the metrics it feeds are absent, not 0.
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("poly.gone", "L0", "poly", "no_such_function"),
        ("hecke.yb_element", "L2", "hecke", "NoSuchClass.method"),
    ))
    before = (poly.poly_gcd, hecke.rename_rf, poly.RationalFunction.__mul__)
    t = tracer.Tracer()
    t.install()
    assert hecke.rename_rf is not before[1]
    poly.RationalFunction.variable("u1") * poly.RationalFunction.variable("u2")
    t.uninstall()
    assert (poly.poly_gcd, hecke.rename_rf, poly.RationalFunction.__mul__) == before
    assert t.untraced() == ["ybhecke.poly.no_such_function", "ybhecke.hecke.NoSuchClass.method"]
    metrics = t.metrics()
    assert metrics["poly.rf_mul.calls"] == 1 and "layer.L1.self_s" in metrics
    for name in ("poly.gone.calls", "layer.L0.self_s", "hecke.yb_element.s", "hecke.yb.max_terms"):
        assert name not in metrics
