"""Command-line surface: output contracts, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybhecke import cli, hecke, schubert
from ybhecke.cli import SUITES, main
from ybhecke.permutations import Permutation, all_permutations
from ybhecke.poly import LaurentPoly, format_poly, poly_gcd
from ybhecke.serialize import parse_scalar, poly_from_json, poly_to_json, rf_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_schubert_table_text(capsys):
    code, out = run(capsys, "schubert", "-n", "1")
    assert code == 0
    assert out.strip() == "1: 1"


def test_schubert_table_latex(capsys):
    code, out = run(capsys, "schubert", "-n", "4", "--format", "latex")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 24
    assert "X_{2134} = x_1-y_1" in lines


def test_grothendieck_json_roundtrip(capsys):
    code, out = run(capsys, "grothendieck", "-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and len(payload["entries"]) == 6
    g132 = poly_from_json(payload["entries"]["132"])
    assert parse_scalar("1 - y1*y2/(x1*x2)") == g132


def whole_payload_table(command, fmt, n):
    """The table as an export that builds all of its output first prints it."""
    build = schubert.schubert_table if command == "schubert" else schubert.grothendieck_table
    table, label = build(n), "X" if command == "schubert" else "G"
    perms = all_permutations(n)
    if fmt == "json":
        payload = {
            "kind": label.lower(),
            "n": n,
            "entries": {str(mu): poly_to_json(table[mu]) for mu in perms},
        }
        return json.dumps(payload, sort_keys=True) + "\n"
    if fmt == "latex":
        lines = [f"{label}_{{{mu}}} = {format_poly(table[mu], latex=True)}" for mu in perms]
    else:
        lines = [f"{mu}: {table[mu]}" for mu in perms]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
@pytest.mark.parametrize("command", ["schubert", "grothendieck"])
def test_streamed_tables_equal_the_whole_payload_export(capsys, command, fmt, n):
    code, out = run(capsys, command, "-n", str(n), "--format", fmt)
    assert code == 0 and out == whole_payload_table(command, fmt, n)


@pytest.mark.parametrize("command", ["schubert", "grothendieck"])
def test_out_gets_the_bytes_of_stdout_for_the_json_table(capsys, tmp_path, command):
    target = tmp_path / "table.json"
    code, out = run(capsys, command, "-n", "4", "--format", "json", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode() == whole_payload_table(command, "json", 4).encode()


def test_emit_writes_each_chunk_as_it_arrives(capsys, tmp_path):
    target = tmp_path / "out.txt"

    def chunks():
        assert target.exists()  # opened before the first chunk
        yield "a"
        assert capsys.readouterr().out == "a"
        yield "b\n"

    cli._emit(chunks(), str(target))
    assert capsys.readouterr().out == "b\n"
    assert target.read_text() == "ab\n"


def test_yb_rothe_factor_sequence(capsys):
    code, out = run(capsys, "yb", "-n", "5", "--family", "T", "35142", "--shorthand")
    assert code == 0
    assert "factors: (54)T4 (32)T2 (52)T3 (42)T4 (31)T1 (51)T2" in out


def test_yb_identity_partial(capsys):
    code, out = run(capsys, "yb", "-n", "3", "--family", "partial", "123")
    assert code == 0
    assert "123: 1" in out.splitlines()


def test_yb_sigma_321_identity_coefficient(capsys):
    code, out = run(capsys, "yb", "-n", "3", "--family", "sigma", "321", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    c = rf_from_json(payload["terms"]["123"])
    assert c == parse_scalar("1 + (u1-u2)*(u2-u3)")


def test_yb_with_specialized_parameters(capsys):
    code, out = run(
        capsys,
        "yb", "-n", "2", "--family", "T", "21",
        "--q1", "-1", "--q2", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert rf_from_json(payload["terms"]["21"]) == parse_scalar("1 - u2/u1")


def test_yb_bad_permutation_exits_2(capsys):
    code, _ = run(capsys, "yb", "-n", "3", "--family", "T", "1123")
    assert code == 2
    code, _ = run(capsys, "yb", "-n", "4", "--family", "T", "321")
    assert code == 2
    for window in ("", " "):
        code, out = run(capsys, "yb", "-n", "0", window)
        assert code == 2 and out == ""


@pytest.mark.parametrize("family", ["partial", "T"])
def test_yb_refuses_a_rank_above_the_guard_before_building(capsys, monkeypatch, family):
    # S_7 would take minutes and gigabytes, so a missing guard fails at once
    def unguarded(*args):
        raise AssertionError("yb_element called at n=7")

    monkeypatch.setattr(cli, "yb_element", unguarded)
    code = main(["yb", "-n", "7", "--family", family, "7654321"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: rank 7 outside 1..6\n"


def test_yb_spectral_parameters_take_ascii_digits_only(capsys):
    code = main(["yb", "-n", "2", "--family", "partial", "21", "--spectral", "\u0662,3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unexpected character at position 0: '\u0662'\n"


def test_gram_n1_and_n2(capsys):
    code, out = run(capsys, "gram", "-n", "1", "--family", "T")
    assert code == 0
    assert "1,1: 1" in out
    code, out = run(capsys, "gram", "-n", "2", "--family", "T", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orthogonal"] is True
    # antidiagonal support only
    assert set(payload["entries"]) == {"12,21", "21,12"}


def test_gram_partial_n3_antidiagonal(capsys):
    code, out = run(capsys, "gram", "-n", "3", "--family", "partial")
    assert code == 0
    assert "orthogonality: ok" in out
    omega = Permutation.longest(3)
    for line in out.splitlines():
        if ":" in line and "," in line and not line.startswith("#"):
            key = line.split(":")[0]
            mu, nu = key.split(",")
            got = Permutation.from_string(nu)
            assert got == omega * Permutation.from_string(mu)


@pytest.mark.parametrize("family", ["partial", "sigma", "pibar", "T"])
@pytest.mark.parametrize("spectral", ["2,3,7", "u1+1,u2,u3", "q1,u2,q2+1"])
def test_gram_at_given_spectral_parameters(capsys, family, spectral):
    code, out = run(capsys, "gram", "-n", "3", "--family", family, "--spectral", spectral)
    assert code == 0
    assert out.splitlines()[-1] == "orthogonality: ok"


@pytest.mark.parametrize(
    "spectral, fmt, size, digest",
    [
        ("q1,u2,q2+1", "text", 1356,
         "17a9aaf45d3e0d84f46610cb300fb9045f225ba4f0214ef13ce59af15a84c27e"),
        ("q1,u2,q2+1", "json", 5814,
         "711ad682dc0d6333990b367566243a0774f375f429a8d64e739e4a1c17750354"),
        ("q1/q2,q2/q1,1", "text", 541,
         "066fb780cbf794695bd4d0538f6acb175d919553f83a95cd45661ebc53a91cfa"),
        ("q1/q2,q2/q1,1", "json", 2145,
         "ecd32858d4a6a79aed04faf85eff5db9344aebe0c8b8ecffc30d24b24f7c07a8"),
    ],
)
def test_gram_T_at_spectral_parameters_in_q_is_pinned(capsys, spectral, fmt, size, digest):
    # Family T is paired in its one-parameter form; where u mentions q1 or q2
    # each converted entry is gcd-reduced, since a factor q1+q2 may be
    # shared by both parts (at q1/q2, q2/q1, 1 it is).
    code, out = run(
        capsys, "gram", "-n", "3", "--family", "T", "--spectral", spectral, "--format", fmt
    )
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@pytest.mark.parametrize(
    "command, family, fmt, size, digest, spectral",
    [pytest.param(*row, "1+u1,2,u3", id="-".join(map(str, row))) for row in [
        ("yb", "sigma", "text", 217,
         "6d61ef942703d1da8c0a2d5c1c0cda1dadf00113da3d8975f560829fe815dd96"),
        ("yb", "sigma", "json", 1445,
         "463966e11868de46343a31139358518b0bab543f1795a2d57a2f4008f3b388b4"),
        ("yb", "partial", "text", 198,
         "ef6603856ceeeedb77f9f30a3e442239f725c61d33283eaf68631178aa16d60c"),
        ("yb", "partial", "json", 1319,
         "76da71cd8faa0ae78df75c318b47985c64b22c1fdd8ee83a86d3edf5e54cfd9b"),
        ("yb", "pibar", "text", 286,
         "953df313fde1c809ed879df5b06e090f4e15d27e5b6a01b0ce4636973e945eaf"),
        ("yb", "pibar", "json", 1603,
         "923a37c741413181a71238d596aabc7ce3a2d1ad851fc11817f6de8c7e827a81"),
        ("yb", "T", "text", 722,
         "3e6cdf14dedafca192fcf0f70442e08c548c5994b008bc38168014ea2f617a27"),
        ("yb", "T", "json", 3442,
         "d1955e358bcad5850ee223d7afae1c09a52e8dde63d7cc8da83440fd5d184171"),
        ("gram", "sigma", "text", 441,
         "8667de3df5bb6692e69f5e213646c8ab2426ddc0f0be9dd507a0ea73abccca28"),
        ("gram", "sigma", "json", 2218,
         "5ab9ad55da69dcb7bac7132cc3d624a02ba320cbb05ef74d8b9d1073c23e704d"),
        ("gram", "partial", "text", 443,
         "8f3e68f7a3b457157da086b269cc197a76cce88b3dea8c36101e4d848fe1ab07"),
        ("gram", "partial", "json", 2220,
         "3fb342efdaa1075da043725c80a1d50fed7017ad5c03ccb0fddb2966bda7a2de"),
        ("gram", "pibar", "text", 583,
         "0fa0e2712ae34d6d77183e03def8ba579ef1c78593bc46fe7ce3acbbb0dd3396"),
        ("gram", "pibar", "json", 2492,
         "dd413d698467ffaf8746889d8b137689d48019601dbda8efe4e89445887d6553"),
        ("gram", "T", "text", 1081,
         "fc59cff7396f0fd80ffe5e1831cfc9dfb5f2528f5e1786e78deee95e569a7158"),
        ("gram", "T", "json", 4366,
         "19eac749bbe9935a07c1b4afc0b29292eea2220c495f14310cc8df8cd7b25a46"),
    ]]
    + [(*row, "u1/2,u2,3*u3/2") for row in [
        ("yb", "sigma", "text", 311,
         "d6f3de7fe03ec9b97f76fff999e434a0c45e075b1688ac6eb52ea55ad4f35b9d"),
        ("yb", "sigma", "json", 1484,
         "d6d7c9b9738e9433c2b94ecbcc48f1478a20094341dc7801d59ec44c5c8378bc"),
        ("yb", "partial", "text", 270,
         "f780ad9e63338c4bc9925778645ff1768823afc3aadefe80ed2cbd69ae58a68a"),
        ("yb", "partial", "json", 1295,
         "17dc1f9ac6f7cb446c76fa93f3033f824709b82028064ef7bae802543ac6a642"),
        ("yb", "pibar", "text", 272,
         "4183c82f2aac5f55dbc56dc8cabee62034cc9384594ca9e128835ef05b14bdc1"),
        ("yb", "pibar", "json", 1290,
         "be4542c1d745ae198c7ec49a7b5e8d853ee55ca4a792cf47bb2fa0b6fc757789"),
        ("yb", "T", "text", 490,
         "5383879f5e7c7e0229d632c099e85cc71c832022e2c2de867713235e64e13679"),
        ("yb", "T", "json", 2100,
         "00ee694122f79e050176989aad0d72093702ccadd72ff551a43cda84a1d937dd"),
        ("gram", "sigma", "text", 603,
         "96dadaf66300f6969d21038374f4de57ba555321958ec5b67c3badcd86f00bf3"),
        ("gram", "sigma", "json", 2257,
         "22605a25de389b8203f1408b4c8870e9804800666700359befc13ec9e69469be"),
        ("gram", "partial", "text", 605,
         "266401743000790ac8b369c74512c136b61e20953883952f11a92678fb85c1d6"),
        ("gram", "partial", "json", 2259,
         "38c7b891aec16e8ef00402b4e11468ecb8176b02b0c88b14f7c5cb314d2aab61"),
        ("gram", "pibar", "text", 635,
         "bd34609372a070ffda2f77b4ea7ecbf0e70c90b600bd76958f05fd8a7798511a"),
        ("gram", "pibar", "json", 2277,
         "8f9bdb731023895690cf73e230faf8968cf4950cec16a69bae45cc4df3778990"),
        ("gram", "T", "text", 871,
         "c56da054c0c171593e295fe54fb93c46b9ba50147e2ed10cf076bfb5239a0e07"),
        ("gram", "T", "json", 3125,
         "9e13d6f67b9f89122f8bb9c00f15557537844767acdf0a10a3f94441c4dd90d2"),
    ]],
)
def test_mixed_coefficients_at_spectral_parameters_are_pinned(
    capsys, command, family, fmt, size, digest, spectral
):
    # At 1+u1, 2, u3 a factor joining u1 has a rational coefficient and the
    # others a polynomial one, so these elements hold both kinds.  Sizes and
    # digests were taken when every coefficient was a RationalFunction.  At
    # u1/2, u2, 3*u3/2 the parameters themselves have Fraction coefficients.
    argv = [command, "-n", "3", "--family", family, "--spectral", spectral, "--format", fmt]
    code, out = run(capsys, *argv, *(["321"] if command == "yb" else []))
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# The entries of `gram -n 3 --family T --spectral q1/q2,q2/q1,1` before they
# were reduced: (123,321) and (321,123) shared the factor q1+q2.
UNREDUCED_Q_RATIO_GRAM = {
    "123,321": "(-q1^4 + 2*q1^3*q2 - 2*q1*q2^3 + q2^4)"
               "/(q1^4*q2^3 + 3*q1^3*q2^4 + 3*q1^2*q2^5 + q1*q2^6)",
    "132,312": "(q1^3 - 3*q1^2*q2 + 3*q1*q2^2 - q2^3)/(q1^2*q2^4 + 2*q1*q2^5 + q2^6)",
    "213,231": "(q1^3 - 3*q1^2*q2 + 3*q1*q2^2 - q2^3)/(q1^5*q2 + 2*q1^4*q2^2 + q1^3*q2^3)",
    "231,213": "(-q1^3 + 3*q1^2*q2 - 3*q1*q2^2 + q2^3)/(q1^6 + 2*q1^5*q2 + q1^4*q2^2)",
    "312,132": "(-q1^3 + 3*q1^2*q2 - 3*q1*q2^2 + q2^3)/(q1^3*q2^3 + 2*q1^2*q2^4 + q1*q2^5)",
    "321,123": "(q1^4 - 2*q1^3*q2 + 2*q1*q2^3 - q2^4)"
               "/(q1^6*q2 + 3*q1^5*q2^2 + 3*q1^4*q2^3 + q1^3*q2^4)",
}


def test_gram_T_at_q_ratios_is_reduced_and_equals_the_unreduced_entries(capsys):
    code, out = run(capsys, "gram", "-n", "3", "--family", "T", "--spectral", "q1/q2,q2/q1,1")
    assert code == 0
    entries = dict(line.split(": ") for line in out.splitlines()[1:-1])
    assert set(entries) == set(UNREDUCED_Q_RATIO_GRAM)
    for pair, text in entries.items():
        got, old = parse_scalar(text), parse_scalar(UNREDUCED_Q_RATIO_GRAM[pair])
        assert poly_gcd(got.num, got.den).is_one, pair
        assert got.num * old.den == old.num * got.den, pair
    assert entries["123,321"] != UNREDUCED_Q_RATIO_GRAM["123,321"]


def test_gram_rank_guard(capsys):
    code, _ = run(capsys, "gram", "-n", "4", "--family", "T")
    assert code == 2


def test_gram_rank_guard_message(capsys):
    code = main(["gram", "-n", "4", "--family", "T"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "guarded at n <= 3" in captured.err


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_gram_refuses_a_rank_above_the_guard_before_building(capsys, monkeypatch, force):
    # --force lifts the family's guard, not the rank's: both runs name the rank
    def unguarded(*args):
        raise AssertionError("gram_matrix called at n=7")

    monkeypatch.setattr(cli, "gram_matrix", unguarded)
    code = main(["gram", "-n", "7", "--family", "T", *force])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: rank 7 outside 1..6\n"


def test_gram_and_orthogonality_read_one_rank_guard(capsys, monkeypatch):
    monkeypatch.setitem(SUITES["orthogonality"].limits, "sigma", 2)
    code = main(["gram", "-n", "3", "--family", "sigma"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "family sigma is guarded at n <= 2" in captured.err
    code = main(["verify", "orthogonality", "-n", "3", "--family", "sigma"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "orthogonality[sigma, n=2]: PASS (4 checks)"
    assert "runs at n=2 (sigma)" in captured.err


@pytest.mark.parametrize(
    "args",
    [["gram", "-n", "-1"], ["gram", "-n", "-3", "--family", "partial"], ["yb", "-n", "-1", "1"]],
    ids=["family0", "family1", "yb"],
)
def test_gram_below_rank_1_exits_2(capsys, args):
    # the same message as verify's, from the same check
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {args[0]}: rank must be at least 1, got n={args[2]}\n"


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "newton", "-n", "3", "--seed", "7")
    assert code == 0
    assert "verify newton: PASS" in out
    code, _ = run(capsys, "verify", "nosuch", "-n", "3")
    assert code == 2


def test_verify_reports_rank_clamp_on_stderr(capsys):
    code = main(["verify", "degeneration", "-n", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "verify degeneration: asked for n=4, runs at n=3\n"
    assert captured.out.splitlines() == [
        "degeneration[n=3]: PASS (6 checks)",
        "verify degeneration: PASS",
    ]
    code = main(["verify", "degeneration", "-n", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    main(["verify", "orthogonality", "-n", "4", "--family", "T"])
    assert capsys.readouterr().err == (
        "verify orthogonality: asked for n=4, runs at n=3 (T)\n"
    )


@pytest.mark.parametrize("n", ["0", "-5"])
@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_verify_rejects_a_rank_below_1_before_any_suite_runs(capsys, monkeypatch, suite, n):
    ran = []
    for name, entry in SUITES.items():
        monkeypatch.setitem(
            SUITES, name, entry._replace(run=lambda *args, name=name: ran.append(name))
        )
    code = main(["verify", suite, "-n", n])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and ran == []
    assert captured.err == f"error: verify {suite}: rank must be at least 1, got n={n}\n"


def test_verify_all_n5_output_is_pinned(capsys):
    # Every suite's rank at n=5: the reports on stdout, the clamps on stderr.
    code = main(["verify", "all", "-n", "5", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    fams = ("sigma", "partial", "pibar", "T")
    appendix = [
        f"appendix[{mode}, shape={shape}]: PASS (5 checks, seed=0)"
        for shape in ("(1, 1, 1, 1)", "(4,)", "(2, 2)")
        for mode in ("qpow", "linear")
    ]
    assert captured.out.splitlines() == (
        [
            f"relations[{fam}, n=5]: PASS (40 checks, seed=0)"
            for fam in ("sigma", "partial", "s", "pi", "pibar", "T")
        ]
        + [f"ybe[{fam}]: PASS (1 checks)" for fam in fams]
        + [f"word-independence[{fam}, n=5]: PASS (120 checks)" for fam in fams]
        + [f"rothe[{fam}, n=4]: PASS (24 checks)" for fam in fams]
        + [
            f"orthogonality[{fam}, n=4]: PASS (576 checks)"
            for fam in ("partial", "sigma", "pibar")
        ]
        + [
            "orthogonality[T, n=3]: PASS (36 checks)",
            "schubert-transition[n=5]: PASS (14400 checks)",
            "grothendieck-transition[n=5]: PASS (14400 checks)",
            "yang-leading-terms[n=3]: PASS (20 checks, seed=0)",
            "yang-leading-terms[n=4]: PASS (22 checks, seed=0)",
            "newton-interpolation[n=3]: PASS (60 checks, seed=0)",
            "normal-ordering[n=3]: PASS (60 checks, seed=0)",
        ]
        + appendix
        + [
            "cohomology-basis[n=5]: PASS (121 checks)",
            "degeneration[n=3]: PASS (6 checks)",
            "verify all: PASS",
        ]
    )
    assert captured.err.splitlines() == [
        "verify ybe: asked for n=5, runs at n=4",
        "verify rothe: asked for n=5, runs at n=4",
        "verify orthogonality: asked for n=5, runs at n=4 (partial), n=4 (sigma),"
        " n=4 (pibar), n=3 (T)",
        "verify yang-leading: asked for n=5, runs at n=3 (exhaustive), n=4 (20 samples)",
        "verify newton: asked for n=5, runs at n=3",
        "verify normal-ordering: asked for n=5, runs at n=3",
        "verify appendix: asked for n=5, runs at n=4",
        "verify degeneration: asked for n=5, runs at n=3",
    ]


def test_verify_all_n4_output_is_pinned(capsys):
    # The benchmark's verify-n4 command: its twelve suites give 3383 checks,
    # and rothe, which it leaves out, 96 more.
    code = main(["verify", "all", "-n", "4", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    fams = ("sigma", "partial", "pibar", "T")
    lines = (
        [
            f"relations[{fam}, n=4]: PASS (24 checks, seed=0)"
            for fam in ("sigma", "partial", "s", "pi", "pibar", "T")
        ]
        + [f"ybe[{fam}]: PASS (1 checks)" for fam in fams]
        + [f"word-independence[{fam}, n=4]: PASS (24 checks)" for fam in fams]
        + [f"rothe[{fam}, n=4]: PASS (24 checks)" for fam in fams]
        + [
            f"orthogonality[{fam}, n=4]: PASS (576 checks)"
            for fam in ("partial", "sigma", "pibar")
        ]
        + [
            "orthogonality[T, n=3]: PASS (36 checks)",
            "schubert-transition[n=4]: PASS (576 checks)",
            "grothendieck-transition[n=4]: PASS (576 checks)",
            "yang-leading-terms[n=3]: PASS (20 checks, seed=0)",
            "yang-leading-terms[n=4]: PASS (22 checks, seed=0)",
            "newton-interpolation[n=3]: PASS (60 checks, seed=0)",
            "normal-ordering[n=3]: PASS (60 checks, seed=0)",
        ]
        + [
            f"appendix[{mode}, shape={shape}]: PASS (5 checks, seed=0)"
            for shape in ("(1, 1, 1, 1)", "(4,)", "(2, 2)")
            for mode in ("qpow", "linear")
        ]
        + [
            "cohomology-basis[n=4]: PASS (25 checks)",
            "degeneration[n=3]: PASS (6 checks)",
        ]
    )
    assert captured.out.splitlines() == lines + ["verify all: PASS"]
    checks = [int(line.split("(")[-1].split()[0]) for line in lines]
    rothe = sum(c for line, c in zip(lines, checks) if line.startswith("rothe["))
    assert (sum(checks) - rothe, rothe) == (3383, 96)
    assert captured.err.splitlines() == [
        "verify orthogonality: asked for n=4, runs at n=4 (partial), n=4 (sigma),"
        " n=4 (pibar), n=3 (T)",
        "verify yang-leading: asked for n=4, runs at n=3 (exhaustive), n=4 (20 samples)",
        "verify newton: asked for n=4, runs at n=3",
        "verify normal-ordering: asked for n=4, runs at n=3",
        "verify degeneration: asked for n=4, runs at n=3",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("yb", "-n", "3", "321", "--family", "pibar", "--spectral", "-2*u1,u2,u3"),
        ("yb", "-n", "3", "321", "--q1", "-2*q2"),
        ("gram", "-n", "2", "--family", "partial", "--spectral", "-1,2"),
    ],
)
def test_an_expression_with_a_leading_minus_sign_may_follow_a_space(capsys, argv):
    spaced = run(capsys, *argv)
    joined = run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert spaced == joined and spaced[0] == 0


def test_a_spectral_tuple_of_the_wrong_length_exits_2(capsys):
    code = main(["yb", "-n", "3", "321", "--spectral", "u1,u2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --spectral needs 3 comma-separated expressions\n"


def test_word_independence_fails_when_the_factor_breaks_the_yang_baxter_equation(
    capsys, monkeypatch
):
    real = hecke.factor_coefficient

    def broken(alg, u, v):
        return v if alg.family == "partial" else real(alg, u, v)

    monkeypatch.setattr(hecke, "factor_coefficient", broken)
    assert main(["verify", "ybe", "-n", "3", "--family", "partial"]) == 3
    capsys.readouterr()
    code, out = run(capsys, "verify", "word-independence", "-n", "3", "--family", "partial")
    # 321 is the one permutation of S3 with two descents
    assert code == 3
    assert out.splitlines() == [
        "word-independence[partial, n=3]: FAIL (6 checks)",
        "  witness: mu=321: reduced words disagree",
        "verify word-independence: FAIL",
    ]
    code, out = run(capsys, "verify", "word-independence", "-n", "4", "--family", "partial")
    assert code == 3
    assert out.splitlines()[0] == "word-independence[partial, n=4]: FAIL (24 checks)"
    assert "  witness: mu=4321: reduced words disagree" in out.splitlines()


def recorded_reports(monkeypatch) -> list:
    """The reports of every single suite run through ``main`` from now on."""
    seen = []
    real = cli.run_suite

    def recording(*args):
        reports = real(*args)
        seen.extend(reports)
        return reports

    monkeypatch.setattr(cli, "run_suite", recording)
    return seen


def test_rothe_fails_when_one_box_moves(capsys, monkeypatch):
    real = hecke.rothe_diagram
    mu321 = Permutation.from_string("321")

    def moved(mu):
        diagram = real(mu)
        if mu is not mu321:
            return diagram
        first = diagram[0]  # generator 1 becomes 2, and 2 becomes 1
        return (first._replace(generator=3 - first.generator), *diagram[1:])

    monkeypatch.setattr(hecke, "rothe_diagram", moved)
    reports = recorded_reports(monkeypatch)
    code, out = run(capsys, "verify", "rothe", "-n", "3")
    assert code == 3
    assert [r.failed for r in reports] == [1, 1, 1, 1]
    assert out.splitlines() == [
        line
        for family in ("sigma", "partial", "pibar", "T")
        for line in (
            f"rothe[{family}, n=3]: FAIL (6 checks)",
            "  witness: mu=321: rothe product differs",
        )
    ] + ["verify rothe: FAIL"]


def test_yang_leading_fails_when_one_coefficient_moves(capsys, monkeypatch):
    real = schubert.yang_coefficients
    mu321, nu213 = Permutation.from_string("321"), Permutation.from_string("213")

    def moved(mu):
        coeffs = real(mu)
        if mu is mu321:  # A_213(321) = u3 - u1 gets a second degree-1 term
            coeffs[nu213] = coeffs[nu213] + LaurentPoly.variable("u1")
        return coeffs

    monkeypatch.setattr(schubert, "yang_coefficients", moved)
    reports = recorded_reports(monkeypatch)
    code, out = run(capsys, "verify", "yang-leading", "-n", "3")
    assert code == 3
    assert [r.failed for r in reports] == [1]
    assert out.splitlines() == [
        "yang-leading-terms[n=3]: FAIL (20 checks, seed=0)",
        "  witness: mu=321, nu=213: lowest(u3) != -u1 + u3",
        "verify yang-leading: FAIL",
    ]


def test_appendix_fails_when_one_factor_step_moves(capsys, monkeypatch):
    real = schubert._s_step

    def moved(f, j, a, b, n):  # the step at generator 2 adds f once more
        return real(f, j, a, b, n) + (f if j == 2 else 0)

    monkeypatch.setattr(schubert, "_s_step", moved)
    reports = recorded_reports(monkeypatch)
    code, out = run(capsys, "verify", "appendix", "-n", "3")
    assert code == 3
    # only the linear mode steps by _s_step, and the shape (1, 1, 1) takes
    # no step; so every probe of the linear (3,) report fails
    assert [r.failed for r in reports] == [0, 0, 0, 5]
    lines = out.splitlines()
    assert lines[3:5] == [
        "appendix[linear, shape=(3,)]: FAIL (5 checks, seed=0)",
        "  witness: f=-5*x1^2*x2^2 - 6*x1*x2^2 + 4*x2^2*x3 - 3*x1*x2",
    ]
    assert lines[-1] == "verify appendix: FAIL"


def test_appendix_at_rank_1_runs_its_one_shape_once(capsys, monkeypatch):
    # 1^n and (n) are the one shape (1,) at n = 1: one report per q-mode
    reports = recorded_reports(monkeypatch)
    code, out = run(capsys, "verify", "appendix", "-n", "1")
    assert code == 0 and len(reports) == 2
    assert out.splitlines() == [
        "appendix[qpow, shape=(1,)]: PASS (5 checks, seed=0)",
        "appendix[linear, shape=(1,)]: PASS (5 checks, seed=0)",
        "verify appendix: PASS",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ybe_runs_at_rank_3_at_least_and_says_so(capsys, n):
    # the equation needs generators 1 and 2
    code = main(["verify", "ybe", "-n", str(n)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        f"ybe[{fam}]: PASS (1 checks)" for fam in ("sigma", "partial", "pibar", "T")
    ] + ["verify ybe: PASS"]
    note = [f"verify ybe: asked for n={n}, runs at n=3"] if n < 3 else []
    assert captured.err.splitlines() == note


def test_verify_transition_at_n5(capsys):
    code = main(["verify", "grothendieck-transition", "-n", "5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[0] == (
        "grothendieck-transition[n=5]: PASS (14400 checks)"
    )


def test_verify_orthogonality_partial_n4(capsys):
    code, out = run(capsys, "verify", "orthogonality", "-n", "4", "--family", "partial")
    assert code == 0
    assert "576 checks" in out


def test_verify_rothe_is_a_registered_suite(capsys):
    code, out = run(capsys, "verify", "rothe", "-n", "4")
    assert code == 0
    assert out.splitlines() == [
        f"rothe[{fam}, n=4]: PASS (24 checks)" for fam in ("sigma", "partial", "pibar", "T")
    ] + ["verify rothe: PASS"]
    code, out = run(capsys, "verify", "all", "-n", "2")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("rothe[")] == [
        f"rothe[{fam}, n=2]: PASS (2 checks)" for fam in ("sigma", "partial", "pibar", "T")
    ]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("rothe", "-n", "3", "--family", "partial"), ["rothe[partial, n=3]: PASS (6 checks)"]),
        (("ybe", "-n", "3", "--family", "T"), ["ybe[T]: PASS (1 checks)"]),
        (
            ("word-independence", "-n", "3", "--family", "pibar"),
            ["word-independence[pibar, n=3]: PASS (6 checks)"],
        ),
    ],
)
def test_verify_factor_suite_runs_the_given_family_alone(capsys, argv, lines):
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert out.splitlines() == lines + [f"verify {argv[0]}: PASS"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("yb", "-n", "2", "21", "--family", "pi"), "invalid choice: 'pi'"),
        (("gram", "-n", "2", "--family", "s"), "invalid choice: 's'"),
        (
            ("verify", "orthogonality", "-n", "3", "--family", "s"),
            "error: verify orthogonality: family s has no Yang-Baxter factor",
        ),
        (
            ("verify", "all", "-n", "3", "--family", "pi"),
            "error: verify ybe: family pi has no Yang-Baxter factor",
        ),
    ],
)
def test_family_without_factor_exits_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "suite",
    [
        "schubert-transition",
        "grothendieck-transition",
        "yang-leading",
        "newton",
        "normal-ordering",
        "appendix",
        "cohomology-basis",
        "degeneration",
    ],
)
def test_family_on_a_suite_without_families_exits_2(capsys, suite):
    code = main(["verify", suite, "-n", "3", "--family", "T"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: verify {suite} takes no --family\n"


def test_verify_all_passes_the_family_to_family_suites_only(capsys):
    code, out = run(capsys, "verify", "all", "-n", "2", "--family", "sigma")
    assert code == 0
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names[:5] == [
        "relations[sigma, n=2]",
        "ybe[sigma]",
        "word-independence[sigma, n=2]",
        "rothe[sigma, n=2]",
        "orthogonality[sigma, n=2]",
    ]
    assert "newton-interpolation[n=2]" in names
    assert names[-1] == "verify all"


def test_yb_shorthand_lists_factors_in_every_format(capsys):
    argv = ["yb", "-n", "4", "4312", "--family", "pibar"]
    _, text = run(capsys, *argv, "--shorthand")
    factors = text.splitlines()[1].removeprefix("factors: ").split()
    code, out = run(capsys, *argv, "--shorthand", "--format", "json")
    assert code == 0
    assert json.loads(out)["factors"] == factors


def test_noncanonical_spectral_parameter_exits_2(capsys):
    code = main(["yb", "-n", "2", "21", "--family", "pibar", "--spectral", "u01,u1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: unknown variable 'u01'\n"


def test_noncanonical_permutation_exits_2(capsys):
    code = main(["yb", "-n", "2", "٢١", "--family", "partial"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: not a permutation window: '٢١'\n"


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (
            ("schubert", "-n", "5"),
            282832,
            "ef7a671d66eb6ea347c4bf482cf40e39c659b3f70bcb188ed6f174aedc976cc4",
        ),
        (
            ("grothendieck", "-n", "5", "--format", "json"),
            747636,
            "48f310880a34119a8984b198b21f13fbe3102d0add87a203a05b79b498fc36dd",
        ),
        (
            ("schubert", "-n", "5", "--format", "latex"),
            315722,
            "c3a1063dbc21824a4ef28496bc9472ffebf42cb909acde3249eebb9f2b487e61",
        ),
        (
            ("grothendieck", "-n", "5", "--format", "latex"),
            319258,
            "b663bac5d717ba6141f6fc5eaacfedf60ed39caa0547720ff95f486b272eaa67",
        ),
    ],
    ids=["schubert-text", "grothendieck-json", "schubert-latex", "grothendieck-latex"],
)
def test_n5_table_output_is_pinned(capsys, argv, size, digest):
    # Size and SHA-256 of the exact bytes, so any change of rendering order shows.
    code, out = run(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_yb_T_json_output_is_pinned(capsys):
    # Every Y_mu of family T in S4, in JSON: pins the normal form of each
    # coefficient, not only its value.
    out = ""
    for mu in sorted(str(mu) for mu in all_permutations(4)):
        code, text = run(capsys, "yb", "-n", "4", "--family", "T", mu, "--format", "json")
        assert code == 0
        out += text
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        129885,
        "b7f9f12481f1d5208df6d59ee9ce41e0bc57d4de38a7bc0d9e357a63acf54dcd",
    )


def test_output_determinism(capsys, tmp_path):
    args = ("yb", "-n", "4", "--family", "T", "4231", "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out = run(capsys, "schubert", "-n", "2", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_out_path_that_cannot_be_opened_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    for argv in (["schubert", "-n", "2"], ["verify", "degeneration", "-n", "2"]):
        assert main([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write --out {target}: No such file or directory\n"
    assert main(["schubert", "-n", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")


def test_verify_all_n4_takes_no_gcd_and_no_rational_arithmetic(capsys, monkeypatch):
    import ybhecke.poly
    from ybhecke.poly import RationalFunction

    def refuse(*args):
        raise AssertionError("poly_gcd or RationalFunction arithmetic")

    monkeypatch.setattr(ybhecke.poly, "poly_gcd", refuse)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(RationalFunction, name, refuse)
    assert main(["verify", "all", "-n", "4"]) == 0
    assert capsys.readouterr().out.endswith("verify all: PASS\n")


def test_parser_is_built_once_and_a_patched_handler_still_runs(capsys, monkeypatch):
    assert main(["schubert", "-n", "2"]) == 0
    assert capsys.readouterr().out == "12: 1\n21: x1 - y1\n"
    assert cli._build_parser() is cli._build_parser()
    seen = []

    def patched(args):
        seen.append((args.command, args.n))
        return 0

    monkeypatch.setattr(cli, "cmd_table", patched)
    assert main(["grothendieck", "-n", "3"]) == 0
    assert seen == [("grothendieck", 3)] and capsys.readouterr().out == ""
    monkeypatch.undo()
    assert main(["schubert", "-n", "2"]) == 0
    assert capsys.readouterr().out == "12: 1\n21: x1 - y1\n"


def test_basis_flag_is_gone(capsys):
    code = main(["yb", "-n", "3", "321", "--basis", "rothe"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --basis rothe" in captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv,code,stdout_end,stderr",
    [
        (["verify", "relations", "-n", "2"], 0, "verify relations: PASS\n", ""),
        (["schubert", "-n", "7"], 2, "", "error: rank 7 outside 1..6\n"),
        (["grothendieck", "-n", "0"], 2, "", "error: rank 0 outside 1..6\n"),
    ],
)
def test_package_runs_as_a_program(argv, code, stdout_end, stderr):
    # one child at a time, through __main__ and cli.entry's sys.exit
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "ybhecke", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code
    assert done.stdout.endswith(stdout_end) and done.stderr == stderr
