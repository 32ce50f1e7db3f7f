"""QQ scalars in canonical form: an ``int`` when integral, else a
``Fraction``, and never a ``float``.

The ±1-skew family and its sum-of-squares quotient have integral structure
constants, so every scalar of their tables and resolutions is an ``int`` by
type: that is the fast path of the resolve pipeline.  Skew algebras with
non-integral parameters mix ints and Fractions, and nothing in them may
become a float.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from quadralg.algebra import QuadraticPresentation
from quadralg.exactlinalg import MODULAR_PRIMES, RowSpace, residue
from quadralg.resolutions import linear_resolution
from quadralg.scalars import QQ
from quadralg.shamash import shamash

from conftest import sum_of_squares

CAP = 8
LENGTH = 6


def _step_scalars(pres, cap):
    for d in range(cap + 1):
        for images in pres.component(d).step:
            for flat in images:
                yield from flat[1::2]


def _complex_scalars(cplx):
    for d in cplx.maps:
        for row in d.entries:
            for entry in row:
                yield from entry.coords.values()


# the all -1 sign pattern and the mixed one of the CLI's case2 fixture
PM1_PATTERNS = [
    [[1 if i == j else -1 for j in range(4)] for i in range(4)],
    [[1, -1, -1, 1], [-1, 1, -1, -1], [-1, -1, 1, -1], [1, -1, -1, 1]],
]


def test_pm1_skew_family_computes_in_ints():
    for q in PM1_PATTERNS:
        A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"], q,
                                       degree_cap=CAP)
        f = sum_of_squares(A)
        P = linear_resolution(A, "right", LENGTH)
        T, _ = shamash(A, P, f, length=LENGTH, internal_cap=CAP)
        B = T.presentation
        scalars = [*_step_scalars(A, CAP), *_step_scalars(B, CAP),
                   *_complex_scalars(P), *_complex_scalars(T),
                   *(c for row in B.rel_rows for c in row.values())]
        assert scalars
        assert {type(c) for c in scalars} == {int}


_Q = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2),
                      Fraction(-1, 5), 2, -1, 3])


@given(st.lists(_Q, min_size=3, max_size=3),
       st.integers(min_value=-10**30, max_value=10**30))
def test_non_integral_skew_parameters_give_no_float(params, value):
    n = 3
    q = [[1] * n for _ in range(n)]
    for (i, j), a in zip([(0, 1), (0, 2), (1, 2)], params):
        q[i][j], q[j][i] = a, QQ.inv(a)
    A = QuadraticPresentation.skew(QQ, ["x", "y", "z"], q, degree_cap=5)
    x = A.generator(0)
    f = x * x  # normal and regular in a skew polynomial algebra
    P = linear_resolution(A, "right", 3)
    T, _ = shamash(A, P, f, length=3, internal_cap=5)
    scalars = [*_step_scalars(A, 5), *_step_scalars(T.presentation, 5),
               *_complex_scalars(P), *_complex_scalars(T),
               *(c for row in A.tables().left_table(4) for flat in row
                 for c in flat[1::2])]
    assert all(isinstance(c, (int, Fraction)) for c in scalars)
    # monic echelon rows are canonical: an integral entry is an int
    assert all(type(c) is int for row in A.rel_rows for c in row.values()
               if c.denominator == 1)
    p = MODULAR_PRIMES[0]
    for c in [value, *scalars]:
        if c.denominator == 1:
            assert residue(int(c), p) == residue(Fraction(c), p)


def test_back_reduction_leaves_canonical_scalars():
    """Back-reducing an older pivot row may leave an integral Fraction, here
    3/2 - 1/2; the row keeps the int."""
    space = RowSpace(QQ)
    space.add({0: 1, 1: Fraction(1, 2), 2: Fraction(3, 2)})
    space.add({1: 1, 2: 1})
    assert space.pivots[0] == {0: 1, 2: 1}
    assert all(type(c) is int for row in space.pivots.values()
               for c in row.values())


def test_resolutions_with_fractional_parameters_keep_integral_ints():
    """The skew algebra with q_xy = 1/2, q_xz = 3, q_yz = 2/3: entry (0, 0)
    of d_3 of its right resolution is integral after the back-reduction of
    the nullspace's echelon.  Every integral entry scalar of P, and of its
    quotient resolution by the normal quadric x^2, is an int."""
    q = [[1, Fraction(1, 2), 3], [2, 1, Fraction(2, 3)],
         [Fraction(1, 3), Fraction(3, 2), 1]]
    A = QuadraticPresentation.skew(QQ, ["x", "y", "z"], q, degree_cap=5)
    P = linear_resolution(A, "right", 3)
    x = A.generator(0)
    T, _ = shamash(A, P, x * x, length=3, internal_cap=5)
    for cplx in (P, T):
        scalars = list(_complex_scalars(cplx))
        assert scalars
        assert all(type(c) is int for c in scalars if c.denominator == 1)
    assert any(type(c) is Fraction for c in _complex_scalars(P))
