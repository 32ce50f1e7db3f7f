"""Lower bounds from the first minors that span their degree:
``LinearFormMatrix.spanning_minors`` against ``minors``, and the emptiness
test on a prefix against the leading monomials of a full basis."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quadralg.algebra import QuadraticPresentation
from quadralg.exactlinalg import exact_rank
from quadralg.geometry import check_point_exact, point_variety
from quadralg.groebner import Ideal, _groebner_of, projective_empty
from quadralg.linearforms import LinearFormMatrix, geometry_ring
from quadralg.resolutions import linear_resolution
from quadralg.scalars import GF, QQ
from quadralg.serialize import point_exact_report_to_dict
from conftest import quotient_resolutions

FIELDS = {"QQ": QQ, "GF7": GF(7), "GF11": GF(11)}


def _negative_control(field):
    """(G1) holds with E = Z(xyz); point-exactness fails at degree 3."""
    return QuadraticPresentation.create(field, ["x", "y", "z"], [
        {(0, 0): 1, (1, 1): 1},
        {(1, 2): 1, (2, 0): -2},
        {(0, 2): 1, (2, 1): 1},
    ])


def _reference_empty(ring, gens):
    """Projective emptiness read directly off the leading monomials of a
    reduced basis of every generator."""
    gens = [g for g in gens if g]
    if not gens:
        return False
    leads = [e.lm for e in _groebner_of(ring, gens, ring.order)._entries]
    pure = {i for lm in leads for i, k in enumerate(lm) if k and k == sum(lm)}
    return len(pure) == ring.nvars or any(not any(m) for m in leads)


@st.composite
def _matrices(draw):
    field = FIELDS[draw(st.sampled_from(["QQ", "GF7"]))]
    pres = _negative_control(field)
    ring = geometry_ring(pres)
    s = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=4))
    entry = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3)
    rows = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                         min_size=s, max_size=s))
    t = draw(st.integers(min_value=1, max_value=min(s, r) + 1))
    return pres, LinearFormMatrix(ring, rows), t


@given(_matrices(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_prefix_emptiness_equals_the_full_minors(case, on_variety):
    pres, mat, t = case
    ring = mat.ring
    ideal = (point_variety(pres, "right").ideal if on_variety
             else Ideal(ring, []))
    assert (projective_empty(ideal + mat.spanning_minors(t))
            == _reference_empty(ring, list(ideal.gens) + mat.minors(t)))


@given(_matrices(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_prefix_spans_or_is_every_minor(case, minors_first):
    _, mat, t = case
    field = mat.ring.field
    full = mat.minors(t) if minors_first else None
    prefix = mat.spanning_minors(t)
    full = full or mat.minors(t)
    assert all(f in full for f in prefix)
    spans = (exact_rank([f.terms for f in prefix], field)
             == comb(mat.ring.nvars + t - 1, t))
    assert spans or prefix == full
    # a rank mod p never overstates the span; at the characteristic it is
    # the span
    assert mat.minors_span(t) <= spans
    if field != QQ:
        assert mat.minors_span(t) == spans


def _skew(field, params, n):
    q = [[field.one] * n for _ in range(n)]
    for (i, j), a in zip([(0, 1), (0, 2), (1, 2)], params):
        if j < n:
            q[i][j] = field(a)
            q[j][i] = field.one / field(a)
    return QuadraticPresentation.skew(field, ["x", "y", "z"][:n], q)


def _reports(pres, res):
    out = []
    for side in ("right", "left"):
        rep = check_point_exact(pres, side, 3, res)
        out.append((point_exact_report_to_dict(rep),
                    [ev.lower_by for ev in rep.evidence],
                    [ev.upper_by for ev in rep.evidence]))
    return out


@given(st.sampled_from(sorted(FIELDS)),
       st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), min_size=3,
                max_size=3),
       st.integers(min_value=2, max_value=3), st.booleans())
@settings(max_examples=12, deadline=None)
def test_reports_equal_those_from_every_minor(field_name, params, n,
                                              quotient):
    A = _skew(FIELDS[field_name], params, n)
    if quotient:
        f = A.generator(0) * A.generator(1)
        res, _ = quotient_resolutions(A, f, length=4, internal_cap=5)
        pres = res["right"].presentation
    else:
        pres = A
        res = {side: linear_resolution(A, side, 4, check="report")
               for side in ("right", "left")}
    prefix = _reports(pres, res)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearFormMatrix, "spanning_minors",
                      lambda self, t: self.minors(t))
        assert _reports(pres, res) == prefix


def test_minors_that_never_span_are_expanded_once(monkeypatch):
    ring = geometry_ring(_negative_control(QQ))
    # the 2-minors of a 2 x 3 matrix in x and y only miss every z-form
    mat = LinearFormMatrix(ring, [[(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                                  [(0, 1, 0), (1, 0, 0), (0, 2, 0)]])
    expanded, real = [], LinearFormMatrix._distinct_minors

    def count(self, t):
        expanded.append(t)
        return real(self, t)

    monkeypatch.setattr(LinearFormMatrix, "_distinct_minors", count)
    prefix = mat.spanning_minors(2)
    assert not mat.minors_span(2)
    assert mat.minors(2) == prefix == mat.spanning_minors(2)
    assert len(prefix) > 0
    assert expanded == [2]
