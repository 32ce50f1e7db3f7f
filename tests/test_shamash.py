from fractions import Fraction
from math import comb

import pytest

from quadralg.algebra import QuadraticPresentation, is_normal
from quadralg.resolutions import linear_resolution, zero_map
from quadralg.shamash import (HomotopyLiftError, NotNormalError,
                              NotRegularError, lift_against, shamash)
from quadralg.scalars import QQ
from conftest import quotient_resolutions, sum_of_squares


def test_kx_mod_x_alternating_pattern():
    """B = k[x]/(x): differentials alternate 0 and the scalar identity;
    the output is exact but not minimal."""
    A = QuadraticPresentation.commutative(QQ, ["x"])
    P = linear_resolution(A, "right", 6)
    T, tower = shamash(A, P, A.generator(0), length=6)
    assert T.ranks() == [1] * 7
    rep = T.meta["verification"]
    assert all(v == 0 for v in rep.homology.values())
    assert not rep.minimal
    for i, d in enumerate(T.maps, start=1):
        entry = d.entries[0][0]
        if i % 2 == 1:
            assert entry.is_zero()
        else:
            assert entry.degree == 0 and entry.coords == {0: QQ(1)}


def test_kx_mod_x_squared_minimal():
    """B = k[x]/(x^2): deg f = 2 with Koszul base: a minimal resolution
    with every differential equal to x."""
    A = QuadraticPresentation.commutative(QQ, ["x"])
    P = linear_resolution(A, "right", 6)
    x = A.generator(0)
    T, _ = shamash(A, P, x * x, length=6)
    assert T.ranks() == [1] * 7
    assert T.meta["verification"].minimal
    B = T.presentation
    xb = B.generator(0)
    for d in T.maps:
        assert d.entries[0][0] == xb


def test_shamash_length_zero_is_rejected_not_defaulted():
    """Only length=None means the base resolution's length."""
    A = QuadraticPresentation.commutative(QQ, ["x"])
    P = linear_resolution(A, "right", 3)
    x = A.generator(0)
    with pytest.raises(ValueError, match="length"):
        shamash(A, P, x * x, length=0)
    T, _ = shamash(A, P, x * x)
    assert T.length == P.length


def test_lift_zero_gives_zero(quantum_plane):
    P = linear_resolution(quantum_plane, "right", 3)
    d2 = P.maps[1]
    rhs = zero_map(quantum_plane, d2.target_shifts,
                   tuple(s + 2 for s in d2.target_shifts))
    lifted = lift_against(d2, rhs)
    assert lifted.is_zero()


def test_lift_inconsistent_raises(quantum_plane):
    P = linear_resolution(quantum_plane, "right", 3)
    d2 = P.maps[1]
    # the identity on P_1 does not factor through d_2
    x = quantum_plane.generator(0)
    bad = zero_map(quantum_plane, d2.target_shifts,
                   tuple(s + 1 for s in d2.target_shifts))
    entries = [list(row) for row in bad.entries]
    entries[0][0] = x
    from quadralg.resolutions import FreeModuleMap
    bad = FreeModuleMap(quantum_plane, bad.target_shifts, bad.source_shifts,
                        entries)
    with pytest.raises(HomotopyLiftError):
        lift_against(d2, bad)


def test_c1_entry_degrees_commutative_three_vars():
    """For f of degree 2 the first homotopy has linear entries."""
    A = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    P = linear_resolution(A, "right", 5)
    f = sum_of_squares(A)
    T, tower = shamash(A, P, f, length=5)
    for (k, l), cmap in tower.cmaps.items():
        for row in cmap.entries:
            for e in row:
                if e:
                    assert e.degree == k * (2 - 2) + 1 == 1


def test_tower_identities_and_splitting_sums():
    A = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    P = linear_resolution(A, "right", 6)
    f = sum_of_squares(A)
    T, tower = shamash(A, P, f, length=6)
    for k in (1, 2, 3):
        for l in range(0, 6 - 2 * k + 2):
            assert tower.homotopy_identity_holds(k, l)
    for n in (1, 2, 3):
        for l in range(0, 5 - 2 * n):
            assert tower.splitting_identity_holds(n, l)


def test_tower_identities_on_a_twisted_tower():
    """In the skew algebra with parameters 2, 3, 5, f = x1*x2 has
    sigma = diag(2, 1/2, 1/15), so every c^k with k >= 1 meets a twist
    tau^i that is not the identity."""
    A = _generic_skew3()
    f = A.generator(0) * A.generator(1)
    half, fifteenth = Fraction(1, 2), Fraction(1, 15)
    assert is_normal(f).matrix == ((2, 0, 0), (0, half, 0),
                                   (0, 0, fifteenth))
    _, towers = quotient_resolutions(A, f, length=6)
    for tower in towers.values():
        assert not tower.tau.is_identity()
        for k in range(1, tower.max_k + 1):
            for l in range(0, tower.solved_length - 2 * k + 2):
                assert tower.homotopy_identity_holds(k, l)


def test_twist_commutation_invariant(case3_algebra):
    """sigma-twisting then multiplying by f equals left f-multiplication."""
    f = sum_of_squares(case3_algebra)
    sigma = is_normal(f)
    P = linear_resolution(case3_algebra, "right", 3)
    for e in (entry for row in P.maps[1].entries for entry in row):
        if e:
            assert sigma(e) * f == f * e


def test_rank_formula_case3(case3_algebra):
    f = sum_of_squares(case3_algebra)
    res, towers = quotient_resolutions(case3_algebra, f, length=6)
    T = res["right"]
    expect = [sum(comb(4, i - 2 * j) for j in range(i // 2 + 1))
              for i in range(7)]
    assert T.ranks() == expect
    assert T.meta["verification"].is_exact()
    assert T.meta["verification"].minimal


def test_internal_cap_zero_is_a_cap_and_negative_is_refused():
    A = QuadraticPresentation.commutative(QQ, ["x", "y"])
    P = linear_resolution(A, "right", 4)
    x, y = A.generator(0), A.generator(1)
    T, _ = shamash(A, P, x * x + y * y, internal_cap=0)
    assert T.meta["verification"].internal_cap == 0
    with pytest.raises(ValueError, match="internal_cap"):
        shamash(A, P, x * x + y * y, internal_cap=-1)


def test_shamash_rejects_non_normal(sec5_algebra):
    P = linear_resolution(sec5_algebra, "right", 4)
    x, y = sec5_algebra.generator(0), sec5_algebra.generator(1)
    with pytest.raises(NotNormalError):
        shamash(sec5_algebra, P, x * y, length=4)


def _generic_skew3():
    q = [[1, 2, 3], [Fraction(1, 2), 1, 5],
         [Fraction(1, 3), Fraction(1, 5), 1]]
    return QuadraticPresentation.skew(QQ, ["x1", "x2", "x3"], q)


def test_shamash_rejects_generic_skew_sum_of_squares():
    """In the skew algebra with parameters 2, 3, 5 the sum of squares is not
    normal: f x_j = sigma(x_j) f in A_3 forces sigma diagonal with every
    q_ij^2 = 1.  The quotient construction must refuse it."""
    A = _generic_skew3()
    f = sum_of_squares(A)
    assert is_normal(f) is None
    P = linear_resolution(A, "right", 4)
    with pytest.raises(NotNormalError):
        shamash(A, P, f, length=4)


def test_shamash_rejects_zero_divisor(quantum_plane):
    x = quantum_plane.generator(0)
    B = quantum_plane.quotient(x * x)
    # in B, x is a zero divisor (x * x = 0)
    PB = linear_resolution(B, "right", 3, check="report")
    xb = B.generator(0)
    with pytest.raises(NotRegularError):
        shamash(B, PB, xb * B.generator(1) + xb * xb, length=3)


def test_degree_one_quotient_eliminates_generator(quantum_plane):
    """B = quantum_plane/(x) = k[y]: the degree-1 quotient path removes a
    generator and the resolution machinery still verifies."""
    x = quantum_plane.generator(0)
    sigma = is_normal(x)
    assert sigma is not None           # x y = 2 y x, so sigma(y) = 2y
    P = linear_resolution(quantum_plane, "right", 4)
    T, _ = shamash(quantum_plane, P, x, length=4)
    B = T.presentation
    assert B.n == 1
    assert [B.dim(d) for d in range(4)] == [1, 1, 1, 1]
    rep = T.meta["verification"]
    assert all(v == 0 for v in rep.homology.values())
    assert not rep.minimal             # deg f = 1: scalar entries appear


def test_prime_field_pipeline():
    """The whole resolution pipeline over GF(7)."""
    from quadralg.scalars import GF
    F = GF(7)
    A = QuadraticPresentation.create(F, ["x", "y"],
                                     [{(0, 1): 1, (1, 0): -2}])
    P = linear_resolution(A, "right", 3)
    assert P.ranks() == [1, 2, 1, 0]
    assert P.meta["verification"].is_exact()
    x, y = A.generator(0), A.generator(1)
    f = x * y
    sigma = is_normal(f)
    assert sigma is not None
    T, _ = shamash(A, P, f, length=3, internal_cap=5)
    assert T.meta["verification"].minimal


def test_generic_skew_monomial_quotient():
    """Quotient of the generic 3-dim skew algebra by the normal monomial
    x1 x2 works end to end (companion to the impossible sum-of-squares)."""
    A = _generic_skew3()
    f = A.generator(0) * A.generator(1)
    sigma = is_normal(f)
    assert sigma is not None
    P = linear_resolution(A, "right", 5)
    T, tower = shamash(A, P, f, length=5)
    assert T.meta["verification"].is_exact()
    assert T.meta["verification"].minimal
    expect = [sum(comb(3, i - 2 * j) for j in range(i // 2 + 1))
              for i in range(6)]
    assert T.ranks() == expect
