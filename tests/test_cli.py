import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import quadralg
from quadralg import algebra, resolutions
from quadralg.algebra import QuadraticPresentation
from quadralg.cli import main
from quadralg.exactlinalg import MODULAR_PRIMES
from quadralg.parsing import ParseError, parse_presentation_text
from quadralg.resolutions import linear_resolution
from conftest import NON_KOSZUL

QPLANE = """field QQ
vars x, y
rel x*y - 2*y*x
"""

SEC5 = """field QQ
vars x, y, z
rel x*y + y*x + 2*z^2
rel y*z + z*y + 2*x^2
rel z*x + x*z + 2*y^2
"""

SKEW235 = """vars x, y, z
rel y*x - 2*x*y
rel z*x - 3*x*z
rel z*y - 5*y*z
"""

CASE2 = """field QQ
vars x1, x2, x3, x4
skew
1 -1 -1 1
-1 1 -1 -1
-1 -1 1 -1
1 -1 -1 1
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "qplane.pres").write_text(QPLANE)
    (tmp_path / "sec5.pres").write_text(SEC5)
    (tmp_path / "case2.pres").write_text(CASE2)
    (tmp_path / "nonkoszul.pres").write_text(NON_KOSZUL)
    (tmp_path / "xy.pres").write_text("vars x, y\nrel x*y\nrel y*x\n")
    (tmp_path / "skew235.pres").write_text(SKEW235)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(args):
    return main(args)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_check_g1_quantum_plane(workdir, capsys):
    code = run(["check-g1", "qplane.pres", "--json-out", "g1.json"])
    assert code == 0
    doc = load("g1.json")
    assert doc["results"]["g1"] is True
    assert doc["results"]["E_ideal"] == []
    samples = {tuple(s["point"]): tuple(s["sigma"])
               for s in doc["results"]["sigma_samples"]}
    assert samples[("1", "1")] == ("1", "2")
    out = capsys.readouterr().out
    assert "(G1) condition: True" in out


def test_point_variety_after_quotient(workdir):
    code = run(["point-variety", "sec5.pres", "--element", "x*y",
                "--json-out", "pv.json"])
    assert code == 0
    doc = load("pv.json")
    assert doc["results"]["semi_standard"] is False
    assert doc["results"]["right_ideal"]
    assert doc["config"]["element"] == "x*y"
    # a false verdict is still exit code 0


def test_quotient_reports_canonical_lift(workdir):
    code = run(["quotient", "sec5.pres", "--element", "x*y",
                "--json-out", "quot.json"])
    assert code == 0
    doc = load("quot.json")
    # xy = -yx - 2z^2 in the canonical complement
    assert doc["results"]["canonical_lift"] == "-y*x - 2*z^2"
    assert os.path.exists(doc["results"]["presentation_file"])


def test_sigma_subcommand(workdir):
    code = run(["sigma", "qplane.pres", "--point", "1,1",
                "--json-out", "sig.json"])
    assert code == 0
    doc = load("sig.json")
    assert doc["results"]["sigma"] == ["1", "2"]


def test_resolve_and_determinism(workdir):
    code = run(["resolve", "qplane.pres", "-L", "3",
                "--json-out", "r1.json"])
    assert code == 0
    code = run(["resolve", "qplane.pres", "-L", "3",
                "--json-out", "r2.json"])
    assert code == 0
    with open("r1.json", "rb") as fh1, open("r2.json", "rb") as fh2:
        assert fh1.read() == fh2.read()
    doc = load("r1.json")
    assert doc["results"]["right"]["ranks"] == [1, 2, 1, 0]
    assert doc["results"]["right"]["verification"]["exact"] is True


def test_resolve_when_every_working_prime_clashes(workdir, capsys):
    """A coefficient 1/N, N the product of the working primes, leaves no
    modular certificate: the rational ranks decide, and the input is valid."""
    n = 1
    for p in MODULAR_PRIMES:
        n *= p
    (workdir / "clash.pres").write_text(
        f"field QQ\nvars x, y\nskew\n1 1/{n}\n{n} 1\n")
    code = run(["resolve", "clash.pres", "-L", "3",
                "--json-out", "clash.json"])
    assert code == 0, capsys.readouterr().err
    doc = load("clash.json")
    for side in ("right", "left"):
        assert doc["results"][side]["ranks"] == [1, 2, 1, 0]
        assert doc["results"][side]["verification"]["exact"] is True


def test_shamash_subcommand(workdir):
    code = run(["shamash", "case2.pres",
                "--element", "x1^2 + x2^2 + x3^2 + x4^2",
                "-L", "4", "--side", "right", "--json-out", "sh.json"])
    assert code == 0
    doc = load("sh.json")
    assert doc["results"]["normal"] is True
    assert doc["results"]["right"]["ranks"] == [1, 4, 7, 8, 8]
    assert doc["results"]["right"]["verification"]["minimal"] is True


@pytest.mark.parametrize("name, element, solved", [
    ("case2", "x1^2 + x2^2 + x3^2 + x4^2", 1),
    ("qplane", "x*y", 2),
])
def test_shamash_on_both_sides_computes_sigma_once_per_element(
        workdir, monkeypatch, name, element, solved):
    """sigma is solved for once per distinct (algebra, element): case2 is
    its own opposite and fixes its sum of squares, while the quantum
    plane's opposite is another algebra with f = y*x there.  Only
    ``is_normal`` calls ``algebra.solve_batch``, once per sigma.  The cap is
    this test's own, so no presentation made by another test is reused."""
    calls = []
    real = algebra.solve_batch

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(algebra, "solve_batch", spy)
    code = run(["shamash", f"{name}.pres", "--element", element,
                "-L", "3", "--cap", "7", "--side", "both",
                "--json-out", "sh2.json"])
    assert code == 0
    doc = load("sh2.json")
    assert doc["results"]["normal"] is True
    for side in ("right", "left"):
        assert doc["results"][side]["verification"]["exact"] is True
    assert len(calls) == solved


def test_shamash_non_normal_is_verdict_not_error(workdir):
    code = run(["shamash", "sec5.pres", "--element", "x*y",
                "--json-out", "shn.json"])
    assert code == 0
    doc = load("shn.json")
    assert doc["results"]["normal"] is False


def test_check_point_exact_subcommand(workdir):
    code = run(["check-point-exact", "qplane.pres", "--max-degree", "2",
                "--json-out", "pe.json"])
    assert code == 0
    doc = load("pe.json")
    assert doc["results"]["right"]["verdict"] is True
    assert doc["results"]["left"]["verdict"] is True


def test_input_errors_exit_2(workdir, capsys):
    assert run(["resolve", "missing.pres"]) == 2
    (workdir / "bad.pres").write_text("vars x\nrel x*y\n")
    assert run(["resolve", "bad.pres"]) == 2
    assert run(["point-variety", "sec5.pres", "--element", "w*w"]) == 2


def test_shamash_length_zero_exits_2(workdir, capsys):
    code = run(["shamash", "case2.pres",
                "--element", "x1^2 + x2^2 + x3^2 + x4^2",
                "-L", "0", "--json-out", "sh0.json"])
    assert code == 2
    assert "input error: length must be >= 1" in capsys.readouterr().err
    assert not os.path.exists("sh0.json")


def test_coefficient_not_in_prime_field_exits_2(workdir, capsys):
    (workdir / "f7.pres").write_text("field 7\nvars x, y\n"
                                     "rel x*y - 1/7*y*x\n")
    assert run(["resolve", "f7.pres", "--json-out", "f7.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "divisible by 7" in err
    (workdir / "s7.pres").write_text("field 7\nvars x, y\nskew\n"
                                     "1 1/7\n7 1\n")
    assert run(["resolve", "s7.pres", "--json-out", "s7.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    (workdir / "z.pres").write_text("vars x, y\nrel x*y - 1/0*y*x\n")
    assert run(["resolve", "z.pres", "--json-out", "z.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    (workdir / "zs.pres").write_text("vars x, y\nskew\n1 1/0\n1 1\n")
    assert run(["resolve", "zs.pres", "--json-out", "zs.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_large_prime_field_resolves(workdir):
    (workdir / "m61.pres").write_text("field 2305843009213693951\n"
                                      "vars x, y\nrel x*y - 2*y*x\n")
    assert run(["resolve", "m61.pres", "-L", "3",
                "--json-out", "m61.json"]) == 0
    assert load("m61.json")["results"]["right"]["ranks"] == [1, 2, 1, 0]


def test_characteristic_above_certified_bound_exits_2(workdir, capsys):
    (workdir / "big.pres").write_text("field 3317044064679887385961983\n"
                                      "vars x, y\nrel x*y - 2*y*x\n")
    assert run(["resolve", "big.pres", "--json-out", "big.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "certified bound" in err
    assert not os.path.exists("big.json")


def test_python_dash_m_quadralg_help():
    src = os.path.dirname(os.path.dirname(quadralg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "quadralg", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: quadralg")


@pytest.mark.parametrize("argv", [
    ["resolve", "case2.pres"], ["check-g1", "case2.pres"],
    ["resolve", "qplane.pres", "--json-out", "-"]])
def test_stdout_closed_early_exits_0_without_traceback(workdir, argv):
    """As ``quadralg resolve x.pres | head -1``: the reader closes stdout
    before the report is written.  The run itself completes, so it exits 0,
    and a --json-out file is still written."""
    src = os.path.dirname(os.path.dirname(quadralg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "quadralg", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err == ""
    if "-" not in argv:
        assert load("report.json")["config"]["command"] == argv[0]


@pytest.mark.parametrize("point", ["0,0", "1", "1,2,3", "1/0,1", "a,b",
                                   "1e3,1", "1.5,1", "1_0,1"])
def test_sigma_bad_point_exits_2(workdir, capsys, point):
    # the free algebra fails (G1): the point is refused before that verdict
    (workdir / "free.pres").write_text("field QQ\nvars x, y\n")
    for name in ("qplane.pres", "free.pres"):
        code = run(["sigma", name, "--point", point,
                    "--json-out", "sig.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not os.path.exists("sig.json")


def test_invariant_breach_exits_3(workdir, monkeypatch):
    import quadralg.cli as cli_mod
    from quadralg.shamash import InvariantBreach

    def boom(*a, **k):
        raise InvariantBreach("synthetic")

    monkeypatch.setitem(
        {"check-g1": boom}, "check-g1", boom)
    monkeypatch.setattr(cli_mod, "check_g1", boom)
    assert run(["check-g1", "qplane.pres", "--json-out", "x.json"]) == 3


def test_seed_enables_prefilter(workdir):
    code = run(["check-point-exact", "qplane.pres", "--max-degree", "1",
                "--seed", "5", "--json-out", "pe-seed.json"])
    assert code == 0
    doc = load("pe-seed.json")
    assert doc["results"]["right"]["verdict"] is True
    assert doc["config"]["seed"] == 5


def test_report_subcommand(workdir):
    code = run(["report", "qplane.pres", "-L", "3", "--max-degree", "2",
                "--json-out", "full.json"])
    assert code == 0
    doc = load("full.json")
    assert set(doc["results"]) == {"resolutions", "point_varieties", "g1",
                                   "point_exact"}
    assert doc["tool_version"]


def test_bad_degree_cap_variable_does_not_break_import(monkeypatch):
    src = os.path.dirname(os.path.dirname(quadralg.__file__))
    env = dict(os.environ, QUADRALG_DEGREE_CAP="abc", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", "import quadralg"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bad_degree_cap_variable_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.setenv("QUADRALG_DEGREE_CAP", "abc")
    assert run(["resolve", "qplane.pres", "--json-out", "cap.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "QUADRALG_DEGREE_CAP" in err
    assert "Traceback" not in err
    assert not os.path.exists("cap.json")


def test_degree_cap_variable_sets_the_cap(workdir, monkeypatch):
    monkeypatch.setenv("QUADRALG_DEGREE_CAP", "5")
    assert run(["resolve", "qplane.pres", "-L", "2",
                "--json-out", "cap.json"]) == 0
    assert load("cap.json")["config"]["cap"] == 5


@pytest.mark.parametrize("source", ["--cap", "QUADRALG_DEGREE_CAP"])
def test_negative_degree_cap_exits_2(workdir, capsys, monkeypatch, source):
    argv = ["resolve", "qplane.pres", "--json-out", "cap.json"]
    if source == "--cap":
        argv += ["--cap", "-1"]
    else:
        monkeypatch.setenv(source, "-5")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "cap" in err
    assert "Traceback" not in err
    assert not os.path.exists("cap.json")


def test_a_cap_below_length_plus_two_is_raised(workdir):
    assert run(["resolve", "qplane.pres", "-L", "2", "--cap", "0",
                "--json-out", "cap.json"]) == 0
    assert load("cap.json")["config"]["cap"] == 4


def test_a_subcommand_without_length_keeps_its_cap(workdir):
    assert run(["quotient", "qplane.pres", "--element", "x*y", "--cap", "3",
                "--json-out", "cap.json"]) == 0
    assert load("cap.json")["config"]["cap"] == 3


def test_a_cap_too_small_for_sigma_is_an_input_error(workdir, capsys):
    """sigma resolves to length 2, which needs degree 3: at cap 2 it exits
    2, and an explicit cap is never replaced by length + 2."""
    code = run(["sigma", "qplane.pres", "--point", "1,0", "--cap", "2",
                "--json-out", "cap.json"])
    assert code in (0, 2)
    if code == 0:
        assert load("cap.json")["config"]["cap"] == 2
    else:
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err
        assert not os.path.exists("cap.json")


@pytest.mark.parametrize("command", ["check-point-exact", "report"])
def test_negative_max_degree_exits_2(workdir, capsys, command):
    assert run([command, "qplane.pres", "--max-degree", "-1",
                "--json-out", "md.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert not os.path.exists("md.json")


def test_non_koszul_report_does_not_depend_on_the_modular_shortcut(
        workdir, monkeypatch):
    """The chain falls short at internal degree 4, where the homology at
    index 2 has dim 11, and the exact ranks decide there.  With
    ``modular_rank`` stubbed to 0 no chain closes and every degree takes
    the exact ranks: the report and the JSON results are the same.  Each
    run parses its own presentation (distinct caps), so that no resolution
    is reused."""
    stubbed = []

    def never_certifies(columns, nrows):
        stubbed.append(nrows)
        return 0

    reports, results = [], []
    for cap, stub in ((6, False), (7, True)):
        with monkeypatch.context() as mp:
            if stub:
                mp.setattr(resolutions, "modular_rank", never_certifies)
            pres = parse_presentation_text(NON_KOSZUL, degree_cap=cap)
            res = linear_resolution(pres, "right", 3, check="report")
            reports.append(res.meta["verification"])
            out = f"nk{cap}.json"
            assert run(["resolve", "nonkoszul.pres", "-L", "3", "--cap",
                        str(cap), "--json-out", out]) == 0
            results.append(load(out)["results"])
    assert stubbed
    assert reports[0] == reports[1]
    assert reports[0].first_failure() == ("homology", 2, 4, 11)
    assert results[0] == results[1]
    assert "(dim 11)" in results[0]["right"]["failure"]


def test_shamash_on_non_koszul_base_is_verdict_not_error(workdir, capsys):
    code = run(["shamash", "nonkoszul.pres", "--element", "t^2", "-L", "3",
                "--side", "right", "--json-out", "nk.json"])
    assert code == 0
    right = load("nk.json")["results"]["right"]
    assert right["koszul_at_truncation"] is False
    assert "not Koszul" in right["failure"]
    assert "NOT Koszul" in capsys.readouterr().out


def test_shamash_normal_zero_divisor_reports_not_regular(workdir, capsys):
    """x^2 is central in k<x,y>/(xy, yx) but y*x^2 = 0: the report says
    normal, then not regular, and has no sigma."""
    code = run(["shamash", "xy.pres", "--element", "x^2",
                "--json-out", "un.json"])
    assert code == 0
    results = load("un.json")["results"]
    assert results["normal"] is True
    assert results["regular_up_to"] == {"6": False}
    assert "normal_undecided" not in results
    assert "normalizing_matrix" not in results
    out = capsys.readouterr().out
    assert "normal: True\nregular up to degree 6: False\n" in out


@pytest.mark.parametrize("name, point", [("skew235.pres", "1,1,1"),
                                         ("xy.pres", "1,1")])
def test_sigma_at_a_point_off_e_exits_2(workdir, capsys, name, point):
    code = run(["sigma", name, "--point", point, "--json-out", "offe.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "not on E" in err
    assert not os.path.exists("offe.json")


# ---- fuzzing the input surface --------------------------------------------

_NAMES = ["x", "y", "z"]
_term = st.tuples(st.sampled_from(["", "2*", "-1/2*", "3*"]),
                  st.sampled_from(_NAMES), st.sampled_from(_NAMES)).map(
    lambda t: f"{t[0]}{t[1]}*{t[2]}")
_good_poly = st.lists(_term, min_size=1, max_size=3).map(" - ".join)
_soup = st.lists(st.sampled_from(
    ["x", "y", "z", "w", "1", "2", "1/2", "0", "1/0", "+", "-", "*", "^",
     "^2", "^3", "^99999999999", " ", "(", "#", "9" * 30]),
    max_size=10).map("".join)
_poly = st.one_of(_good_poly, _soup)
_line = st.one_of(
    st.sampled_from(["field QQ", "field Q", "field 2", "field 7", "field 4",
                     "field 0", "field", "field -3", "field abc",
                     "vars x, y", "vars x y z", "vars x, x", "vars 2x",
                     "vars"]),
    _poly.map(lambda p: "rel " + p),
    st.lists(st.lists(st.sampled_from(["1", "-1", "2", "1/2", "0", "x",
                                       "1/0"]), max_size=3).map(" ".join),
             max_size=3).map(lambda rows: "\n".join(["skew"] + rows)),
    st.text(max_size=8))
_texts = st.lists(_line, max_size=6).map("\n".join)
# most soups fail to parse; this one mostly parses
_plausible = st.tuples(st.sampled_from(["", "field 7\n"]),
                       st.sampled_from(["vars x, y\n", "vars x, y, z\n"]),
                       st.lists(_good_poly, min_size=1, max_size=3)).map(
    lambda t: t[0] + t[1] + "".join(f"rel {p}\n" for p in t[2]))
# skew algebras, where (G1) mostly holds, so that sigma meets points on E
# and off it
_q = st.sampled_from(["1", "-1", "2", "-1/2", "0"])
_skew = st.one_of(
    _q.map(lambda q: f"vars x, y\nrel y*x - {q}*x*y\n"),
    st.tuples(_q, _q, _q).map(lambda qs: "vars x, y, z\n" + "".join(
        f"rel {b}*{a} - {q}*{a}*{b}\n"
        for (a, b), q in zip([("x", "y"), ("x", "z"), ("y", "z")], qs))))


@settings(max_examples=300)
@given(st.one_of(_texts, _plausible))
def test_parser_fuzz_returns_or_raises_parse_error(text):
    try:
        pres = parse_presentation_text(text, degree_cap=4)
    except ParseError:
        return
    assert isinstance(pres, QuadraticPresentation)


@settings(max_examples=100)
@given(st.one_of(_texts, _plausible, _skew),
       st.sampled_from(["resolve", "quotient", "shamash", "sigma"]),
       st.one_of(st.none(), _good_poly, _soup),
       st.sampled_from(["1,0", "1,1", "1,0,0", "1,1,1", "1,-1,2", "2,1,1",
                        "0,0", "0,0,0", "1", "1,2,3,4", "1/0,1", "x,1"]))
def test_cli_fuzz_exits_0_or_2(text, command, element, point):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.pres")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, path, "-L", "2", "--cap", "4",
                "--json-out", os.path.join(tmp, "out.json")]
        if command == "sigma":
            argv.append(f"--point={point}")
        elif element is not None or command != "resolve":
            argv.append(f"--element={element or 'x*x'}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
