"""The composite-zero check from scalar columns, and the sparse product of
module maps.

``FreeModuleMap.composes_to_zero`` reads self o other off the scalar
columns of ``self``, with no product over the algebra: it must agree with
``compose(...).is_zero()`` on every pair of compatible maps, over QQ and
over GF(7).  ``compose`` multiplies only the nonzero entries of each column
and must equal the dense triple sum of products entry by entry.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quadralg.algebra import AlgebraElement, QuadraticPresentation
from quadralg.resolutions import FreeModuleMap, block_map, linear_resolution
from quadralg.scalars import GF, QQ

NAMES = ["x", "y", "z"]
CAP = 6
_q = st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3)])
_c = st.sampled_from([0, 0, 1, -1, 2, Fraction(3, 2)])


@st.composite
def skew_algebras(draw):
    field = draw(st.sampled_from([QQ, GF(7)]))
    n = draw(st.integers(2, 3))
    q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = draw(_q)
            q[j][i] = 1 / q[i][j]
    return QuadraticPresentation.skew(field, NAMES[:n], q, degree_cap=CAP)


def _element(draw, pres, degree):
    field = pres.field
    return AlgebraElement(pres, degree, {
        w: field(c) for w in range(pres.dim(degree)) if (c := draw(_c))})


def _random_map(draw, pres, target, source):
    """Entries of degree 0, 1 or 2 where the shifts allow, some left zero:
    a zero entry, a zero block or a zero column."""
    rows = []
    for t in target:
        row = []
        for s in source:
            if 0 <= s - t <= 2 and draw(st.booleans()):
                row.append(_element(draw, pres, s - t))
            else:
                row.append(pres.zero_element(max(s - t, 0)))
        rows.append(row)
    return FreeModuleMap(pres, target, source, rows)


def _planted(draw, pres, fmap):
    """``fmap`` with a random element added at one entry of degree 1."""
    spots = [(t, j) for t, tt in enumerate(fmap.target_shifts)
             for j, s in enumerate(fmap.source_shifts) if s - tt == 1]
    if not spots:
        return fmap
    t, j = draw(st.sampled_from(spots))
    entries = [list(row) for row in fmap.entries]
    extra = _element(draw, pres, 1)
    if extra:
        entries[t][j] = entries[t][j] + extra
    return FreeModuleMap(pres, fmap.target_shifts, fmap.source_shifts,
                         entries)


@st.composite
def composable_pairs(draw):
    """(a, b) with a's source shifts b's target shifts: two consecutive
    differentials of a resolution, whose composite is zero, with a column
    of another shift beside b and a planted entry in b; or two random
    maps with mixed shifts."""
    pres = draw(skew_algebras())
    if draw(st.booleans()):
        P = linear_resolution(pres, "right", 3)
        i = draw(st.integers(1, 2))
        a, b = P.maps[i - 1], P.maps[i]
        if draw(st.booleans()):
            extra = draw(st.integers(i + 1, i + 3))
            b = block_map(pres, [[b, _random_map(draw, pres, b.target_shifts,
                                                 (extra,))]])
        if draw(st.booleans()):
            b = _planted(draw, pres, b)
        return a, b
    shifts = st.lists(st.integers(0, 4), min_size=1, max_size=3)
    target = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    middle, source = draw(shifts), draw(shifts)
    return (_random_map(draw, pres, target, middle),
            _random_map(draw, pres, middle, source))


def _dense_compose(a, b):
    """Reference product: entry (k, j) as the sum over every t of
    a[k][t] * b[t][j], zero factors included."""
    pres = a.presentation
    out = []
    for k, t0 in enumerate(a.target_shifts):
        row = []
        for j, s in enumerate(b.source_shifts):
            total = pres.zero_element(max(s - t0, 0))
            for t in range(a.ncols):
                prod = a.entries[k][t] * b.entries[t][j]
                if prod:
                    total = total + prod
            row.append(total)
        out.append(row)
    return out


@given(composable_pairs())
@settings(max_examples=80, deadline=None)
def test_composes_to_zero_agrees_with_the_composite(pair):
    a, b = pair
    assert a.composes_to_zero(b) == a.compose(b).is_zero()


@given(composable_pairs())
@settings(max_examples=60, deadline=None)
def test_sparse_compose_equals_the_dense_product(pair):
    a, b = pair
    got = a.compose(b)
    assert got.target_shifts == a.target_shifts
    assert got.source_shifts == b.source_shifts
    for got_row, want_row in zip(got.entries, _dense_compose(a, b)):
        for entry, want in zip(got_row, want_row):
            assert entry.degree == want.degree
            assert entry.coords == want.coords
