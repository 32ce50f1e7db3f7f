"""Lower bounds from the first minors that span their degree:
``LinearFormMatrix.spanning_minors`` against ``minors``, the scattered pair
order against the lex walk, and the emptiness test on a prefix against the
leading monomials of a full basis."""

import gc
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from quadralg.algebra import QuadraticPresentation
from quadralg.exactlinalg import exact_rank
from quadralg.geometry import check_point_exact, point_variety
from quadralg.groebner import Ideal, _groebner_of, projective_empty
from quadralg.linearforms import (LinearFormMatrix, _scattered_pairs,
                                  geometry_ring)
from quadralg.polynomials import PolyRing
from quadralg.resolutions import linear_resolution
from quadralg.scalars import GF, QQ
from quadralg.serialize import point_exact_report_to_dict
from conftest import quotient_resolutions, sum_of_squares

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
            q[j][i] = field.inv(a)
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


@st.composite
def _shapes(draw):
    s = draw(st.integers(min_value=1, max_value=7))
    r = draw(st.integers(min_value=1, max_value=7))
    return s, r, draw(st.integers(min_value=1, max_value=min(s, r)))


@given(_shapes())
@example((1, 1, 1))  # a single pair
@example((3, 3, 3))  # a single pair of three rows
@example((7, 7, 3))  # the most pairs: 35 x 35
@settings(max_examples=80, deadline=None)
def test_the_scattered_order_is_a_bijection_onto_the_pairs(shape):
    s, r, t = shape
    lex = list(product(combinations(range(s), t), combinations(range(r), t)))
    seen = list(_scattered_pairs(s, r, t))
    assert sorted(i for i, _, _ in seen) == list(range(len(lex)))
    assert all(lex[i] == (rows, cols) for i, rows, cols in seen)


def _lex_minors(mat, t):
    """The normalized t-minors of the lex walk over (row set, column set)
    pairs, by cofactor expansion of ``CommPoly`` entries, each kept at its
    first occurrence and then stably sorted by leading monomial."""
    ring = mat.ring
    s, r = mat.shape

    def det(rows, cols):
        if not rows:
            return ring.one()
        total = ring.zero()
        for pos, j in enumerate(cols):
            term = mat.entry_poly(rows[0], j) * det(rows[1:],
                                                    cols[:pos] + cols[pos + 1:])
            total = total - term if pos % 2 else total + term
        return total

    out = []
    for rows, cols in product(combinations(range(s), t),
                              combinations(range(r), t)):
        m = det(rows, cols)
        if m and m.primitive() not in out:
            out.append(m.primitive())
    return sorted(out, key=lambda q: ring.order.key(q.lead_monomial()))


@st.composite
def _sparse_matrices(draw, confined):
    """Random sparse matrices of linear forms over QQ or GF(7), with a ring
    built without a presentation.  ``confined`` keeps z out of every entry,
    so no t-minors span the forms of degree t."""
    field = FIELDS[draw(st.sampled_from(["QQ", "GF7"]))]
    ring = PolyRing(field, ["x", "y", "z"])
    s = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=5))
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    entry = st.tuples(coeff, coeff, st.just(0) if confined else coeff)
    rows = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                         min_size=s, max_size=s))
    t = draw(st.integers(min_value=1, max_value=min(s, r)))
    return LinearFormMatrix(ring, rows), t


@given(_sparse_matrices(confined=True))
@settings(max_examples=60, deadline=None)
def test_a_pass_that_never_spans_stores_the_lex_expansion(case):
    mat, t = case
    prefix = mat.spanning_minors(t)
    assert not mat.minors_span(t)
    assert prefix == mat.minors(t) == _lex_minors(mat, t)


@given(_sparse_matrices(confined=False))
@settings(max_examples=60, deadline=None)
def test_minors_equal_the_lex_expansion(case):
    mat, t = case
    assert mat.minors(t) == _lex_minors(mat, t)


@given(_sparse_matrices(confined=False))
@settings(max_examples=60, deadline=None)
def test_a_prefix_spans_exactly_when_every_minor_does(case):
    mat, t = case
    forms = comb(mat.ring.nvars + t - 1, t)
    field = mat.ring.field

    def spans(minors):
        return exact_rank([f.terms for f in minors], field) == forms

    assert spans(mat.spanning_minors(t)) == spans(mat.minors(t))


def test_a_pass_leaves_no_reference_cycle():
    """The sub-determinant memo is plain data: a pass leaves nothing for
    the cyclic collector."""
    ring = PolyRing(QQ, ["x", "y", "z"])
    mat = LinearFormMatrix(ring, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                  [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
                                  [(0, 0, 1), (1, 0, 0), (0, 1, 1)]])
    gc.collect()
    gc.disable()
    try:
        assert mat.minors_span(2)
        mat.minors(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_skew_quadric_quotients_right_m4_spans_at_a_fixed_prefix():
    """The scattered order fixes the prefix: 106 distinct 4-minors of the
    8 x 8 right M_4 (the lex walk needs 154)."""
    A = QuadraticPresentation.skew(
        QQ, ["x1", "x2", "x3", "x4"],
        [[1 if i == j else -1 for j in range(4)] for i in range(4)])
    res, _ = quotient_resolutions(A, sum_of_squares(A), length=4,
                                  internal_cap=5)
    mat = res["right"].geometric_matrix(4, geometry_ring(
        res["right"].presentation))
    assert mat.shape == (8, 8)
    assert len(mat.spanning_minors(4)) == 106
    assert mat.minors_span(4)


def test_a_handed_over_span_takes_no_second_rank(monkeypatch):
    from quadralg import groebner
    A = _skew(QQ, [-1, -1, -1], 3)
    res, _ = quotient_resolutions(A, sum_of_squares(A), length=4,
                                  internal_cap=5)
    pres = res["right"].presentation
    expected = _reports(pres, res)
    assert "span" in expected[0][1]

    def refuse(*args):
        raise AssertionError("the span was ranked again")

    ranked = []
    monkeypatch.setattr(groebner, "modular_rank",
                        lambda cols, n: ranked.append(n) or refuse())
    for side, (_, lower_by, _) in zip(("right", "left"), expected):
        rep = check_point_exact(pres, side, 3, res)
        assert [ev.lower_by for ev in rep.evidence] == lower_by
    assert ranked == []


def test_a_claimed_span_needs_enough_generators():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    # one quadric cannot span the three forms of degree 2: the claim is
    # ignored and the emptiness test runs in full
    assert not projective_empty(Ideal(ring, [x * y]), spanned_degree=2)
    assert projective_empty(Ideal(ring, [x * x, x * y, y * y]),
                            spanned_degree=2)
