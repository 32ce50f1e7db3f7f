"""The mod-p rank shortcut changes no verdict: with it switched off, so that
every rank falls through to exact elimination, the verification reports
and regularity verdicts are the same, over QQ and over GF(p)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadralg import resolutions
from quadralg.algebra import QuadraticPresentation, is_regular_up_to
from quadralg.parsing import parse_presentation_text
from quadralg.resolutions import (FreeComplex, FreeModuleMap,
                                  linear_resolution, verify_complex)
from quadralg.scalars import GF, QQ
from conftest import NON_KOSZUL

NAMES = ["x", "y", "z"]
_q = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3),
                      Fraction(-3, 2)])
_c = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-1),
                                          Fraction(2), Fraction(-1, 2)])


@st.composite
def skew_algebras(draw, field=QQ):
    n = draw(st.integers(2, 3))
    q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = draw(_q)
            q[j][i] = 1 / q[i][j]
    return QuadraticPresentation.skew(field, NAMES[:n], q)


@st.composite
def dense_algebras(draw, field=QQ):
    n = draw(st.integers(2, 3))
    words = [(u, v) for u in range(n) for v in range(n)]
    rels = []
    for _ in range(draw(st.integers(1, n * n - 2))):
        rel = {w: c for w in words if (c := draw(_c))}
        if rel:
            rels.append(rel)
    if not rels:
        rels = [{(0, 1): Fraction(1), (1, 0): Fraction(-1)}]
    return QuadraticPresentation.create(field, NAMES[:n], rels)


def _quadric(pres, coeffs):
    gens = [pres.generator(i) for i in range(pres.n)]
    f = None
    for (u, v), c in zip([(u, v) for u in range(pres.n)
                          for v in range(pres.n)], coeffs):
        if c:
            term = gens[u] * gens[v] * c
            f = term if f is None else f + term
    return f


def _outcomes(pres, coeffs):
    res = linear_resolution(pres, "right", 3, check="report")
    report = verify_complex(res, 4)
    f = _quadric(pres, coeffs)
    regular = None if not f else is_regular_up_to(f, 2)
    return report, regular


def _without_shortcut(pres, coeffs):
    calls = []

    def never_certifies(columns, nrows):
        # a valid lower bound for every rank, and never a full one
        calls.append(nrows)
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolutions, "modular_rank", never_certifies)
        out = _outcomes(pres, coeffs)
    assert calls
    return out


@given(st.one_of(skew_algebras(), dense_algebras()),
       st.lists(_c, min_size=9, max_size=9))
@settings(max_examples=25)
def test_verdicts_do_not_depend_on_the_modular_shortcut(pres, coeffs):
    report, regular = _outcomes(pres, coeffs)
    slow_report, slow_regular = _without_shortcut(pres, coeffs)
    assert slow_report == report
    assert slow_regular == regular


FIELDS = (GF(7), GF(11), QQ)


def _exact_report(cplx, cap):
    """``verify_complex`` with the chain switched off: every rank exact."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolutions, "_chain_ranks", lambda cplx, e: None)
        return verify_complex(cplx, cap)


@given(st.sampled_from(FIELDS).flatmap(
           lambda k: st.one_of(skew_algebras(k), dense_algebras(k))),
       st.sampled_from(["right", "left"]))
@settings(max_examples=60)
def test_chain_ranks_give_the_exact_report(pres, side):
    """Koszul or not: over GF(p) the chain's ranks are the ranks, and over
    QQ they decide only where they meet their bound."""
    res = linear_resolution(pres, side, 3, check="report")
    assert _exact_report(res, 4) == res.meta["verification"]


@pytest.mark.parametrize("field", ["QQ", "7", "11"])
def test_chain_ranks_give_the_homology_of_a_non_koszul_algebra(
        field, monkeypatch):
    """Homology of dim 11 at (2, 4) on both sides; over GF(p) it comes from
    the chain alone, with no exact rank."""
    pres = parse_presentation_text(f"field {field}\n{NON_KOSZUL}",
                                   degree_cap=6)
    if field != "QQ":
        def fail(columns, nrows, field=QQ):
            raise AssertionError("an exact rank over GF(p)")

        monkeypatch.setattr(resolutions, "rank_of_columns", fail)
    sides = [linear_resolution(pres, side, 3, check="report")
             for side in ("right", "left")]
    monkeypatch.undo()
    for res in sides:
        report = res.meta["verification"]
        assert report.first_failure() == ("homology", 2, 4, 11)
        assert _exact_report(res, 4) == report


def test_a_nonzero_composite_takes_exact_ranks_over_a_prime_field():
    """d_1 = (x, y) and d_2 = (x, y)^t over k[x, y], k = GF(7): d_1 o d_2 =
    x^2 + y^2.  d_1 does not vanish on the image of d_2, so the chain's
    rank of d_1 at degree 2 falls short of dim A_2 = 3; the report takes
    exact ranks, in which d_1 is onto."""
    pres = QuadraticPresentation.commutative(GF(7), ["x", "y"])
    x, y = pres.generator(0), pres.generator(1)
    cplx = FreeComplex(pres, "right", [
        FreeModuleMap(pres, (0,), (1, 1), [[x, y]]),
        FreeModuleMap(pres, (1, 1), (2,), [[x], [y]]),
    ])
    assert resolutions._chain_ranks(cplx, 2) == {1: 2, 2: 1}
    report = verify_complex(cplx, 3)
    assert report.composites_zero == [False]
    assert all(report.augmentation.values())
    assert report.homology == {(1, 0): 0, (1, 1): 0, (1, 2): 0, (1, 3): 0}
    assert _exact_report(cplx, 3) == report
