"""The mod-p rank shortcut changes no verdict: with it switched off, so that
every rank falls through to exact rational elimination, the verification
reports and regularity verdicts are the same."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadralg import resolutions
from quadralg.algebra import QuadraticPresentation, is_regular_up_to
from quadralg.resolutions import linear_resolution, verify_complex
from quadralg.scalars import QQ

NAMES = ["x", "y", "z"]
_q = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3),
                      Fraction(-3, 2)])
_c = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-1),
                                          Fraction(2), Fraction(-1, 2)])


@st.composite
def skew_algebras(draw):
    n = draw(st.integers(2, 3))
    q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = draw(_q)
            q[j][i] = 1 / q[i][j]
    return QuadraticPresentation.skew(QQ, NAMES[:n], q)


@st.composite
def dense_algebras(draw):
    n = draw(st.integers(2, 3))
    words = [(u, v) for u in range(n) for v in range(n)]
    rels = []
    for _ in range(draw(st.integers(1, n * n - 2))):
        rel = {w: c for w in words if (c := draw(_c))}
        if rel:
            rels.append(rel)
    if not rels:
        rels = [{(0, 1): Fraction(1), (1, 0): Fraction(-1)}]
    return QuadraticPresentation.create(QQ, NAMES[:n], rels)


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
