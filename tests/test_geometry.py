import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quadralg.algebra import QuadraticPresentation
from quadralg.geometry import (POINT_BUDGET, PointVarietyIdeal,
                               _small_points_on, check_g1, check_point_exact,
                               is_semi_standard, point_variety,
                               pointwise_complex_exact, sigma_at,
                               vr_membership)
from quadralg.groebner import Ideal, radical_member
from quadralg.linearforms import ProjPoint
from quadralg.polynomials import CommPoly, PolyRing
from quadralg.resolutions import geometry_ring, linear_resolution
from quadralg.scalars import GF, QQ
from conftest import sum_of_squares


@pytest.fixture(scope="module")
def negative_control():
    """G1 holds (E = Z(xyz)) but point-exactness fails at degree 3: the
    linear strand dies at homological degree 3 while rho_3 = 1."""
    return QuadraticPresentation.create(QQ, ["x", "y", "z"], [
        {(0, 0): 1, (1, 1): 1},       # x^2 + y^2
        {(1, 2): 1, (2, 0): -2},      # yz - 2zx
        {(0, 2): 1, (2, 1): 1},       # xz + zy
    ])


def test_point_variety_quantum_plane(quantum_plane):
    pv = point_variety(quantum_plane, "right")
    assert pv.ideal.is_zero_ideal()       # X_A = P^1 since r = 1 < n = 2
    assert pv.r == 1 and pv.n == 2
    left = point_variety(quantum_plane, "left")
    assert left.ideal.is_zero_ideal()


def test_point_variety_sec5_quotient(sec5_quotient):
    pv = point_variety(sec5_quotient, "right")
    ring = pv.ideal.ring
    x, y, z = ring.gens()
    displayed = [10 * x * y * z - 2 * (y ** 3 + x ** 3 + z ** 3),
                 y * (x * y - 2 * z * z),
                 y * (z * x - 2 * y * y),
                 y * (x * x - 4 * y * z)]
    for g in displayed:
        assert radical_member(g, pv.ideal)
    left = point_variety(sec5_quotient, "left")
    displayed_left = [10 * x * y * z - 2 * (y ** 3 + x ** 3 + z ** 3),
                      x * (x * y - 2 * z * z),
                      x * (y * z - 2 * x * x),
                      x * (4 * x * z - y * y)]
    for g in displayed_left:
        assert radical_member(g, left.ideal)
    w = ProjPoint([1, 0, -1])
    assert pv.contains_point(w)
    assert not left.contains_point(w)


def test_semi_standard_verdicts(quantum_plane, sec5_quotient):
    assert is_semi_standard(quantum_plane)
    assert not is_semi_standard(sec5_quotient)
    comm = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    B = comm.quotient(sum_of_squares(comm))
    assert is_semi_standard(B)


def test_check_g1_quantum_plane(quantum_plane):
    pair = check_g1(quantum_plane)
    assert pair is not None
    assert pair.ideal.is_zero_ideal()     # E = P^1
    assert pair.r_plus_one_ge_n
    assert sigma_at(pair, ProjPoint([1, 1])) == ProjPoint([1, 2])
    assert sigma_at(pair, ProjPoint([0, 1])) == ProjPoint([0, 1])


def test_check_g1_skew_four_dims(case3_algebra):
    pair = check_g1(case3_algebra)
    assert pair is not None


def test_check_g1_generic_skew_four_dims():
    from fractions import Fraction
    q = [[1, 2, 3, 5],
         [Fraction(1, 2), 1, 7, Fraction(1, 3)],
         [Fraction(1, 3), Fraction(1, 7), 1, 2],
         [Fraction(1, 5), 3, Fraction(1, 2), 1]]
    A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"], q)
    pair = check_g1(A)
    assert pair is not None
    rep_r, rep_l = check_point_exact(A, "both", 3)
    assert rep_r.ok and rep_l.ok


def test_sigma_requires_membership(negative_control):
    pair = check_g1(negative_control)
    assert pair is not None
    with pytest.raises(ValueError):
        sigma_at(pair, ProjPoint([1, 1, 1]))  # xyz = 1 != 0


def test_sigma_commutative_is_identity():
    comm = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    B = comm.quotient(sum_of_squares(comm))
    pair = check_g1(B)
    assert pair is not None
    for coords in [(1, 0, 0), (0, 1, 0), (3, 4, 0)]:
        p = ProjPoint(coords)
        if pair.contains_point(p):
            assert sigma_at(pair, p) == p


def test_vr_membership_quantum_plane(quantum_plane):
    assert vr_membership(quantum_plane, [1, 1], [1, 2])
    assert not vr_membership(quantum_plane, [1, 0], [0, 1])


def test_vr_membership_two_sided_criterion(quantum_plane, sec5_algebra):
    """(d_1)_p (d_2)_q = 0 iff (h_2)_p (h_1)_q = 0: both evaluate the
    relation pairing."""
    rng = random.Random(8)
    for pres in (quantum_plane, sec5_algebra):
        n = pres.n
        ring = geometry_ring(pres)
        right = linear_resolution(pres, "right", 2)
        left = linear_resolution(pres, "left", 2)
        d1 = right.geometric_matrix(1, ring)
        d2 = right.geometric_matrix(2, ring)
        h1 = left.geometric_matrix(1, ring)
        h2 = left.geometric_matrix(2, ring)
        for _ in range(40):
            p = [QQ(rng.randint(-2, 2)) for _ in range(n)]
            q = [QQ(rng.randint(-2, 2)) for _ in range(n)]
            if not any(p) or not any(q):
                continue
            d1p = d1.eval_at(p)
            d2q = d2.eval_at(q)
            prod_d = [sum((d1p[0][k] * d2q[k][j] for k in range(n)),
                          QQ.zero) for j in range(d2.shape[1])]
            h2p = h2.eval_at(p)
            h1q = h1.eval_at(q)
            prod_h = [sum((h2p[i][k] * h1q[k][0] for k in range(n)),
                          QQ.zero) for i in range(h2.shape[0])]
            lhs = all(v == 0 for v in prod_d)
            rhs = all(v == 0 for v in prod_h)
            direct = vr_membership(pres, p, q)
            assert lhs == rhs == direct


from conftest import vr_empty_oracle as brute_vr_empty


def test_vr_emptiness_equivalence_examples(quantum_plane):
    """V(R) empty iff X_A empty iff _AX empty."""
    # quantum plane: all three nonempty
    assert not brute_vr_empty(quantum_plane)
    assert not point_variety(quantum_plane, "right").ideal.gens  # P^1
    # a quadratic algebra with empty point data: every word of degree 2 is
    # a relation, so no pair (p, q) of nonzero vectors survives
    pres = QuadraticPresentation.create(QQ, ["x", "y"], [
        {(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, {(1, 1): 1},
    ])
    assert brute_vr_empty(pres)
    right = point_variety(pres, "right")
    left = point_variety(pres, "left")
    from quadralg.groebner import projective_empty
    assert projective_empty(right.ideal)
    assert projective_empty(left.ideal)


def test_point_exact_small_quantum_polynomials(quantum_plane, sec5_algebra):
    rep_r, rep_l = check_point_exact(quantum_plane, "both", 2)
    assert rep_r.ok and rep_l.ok
    rep_r, rep_l = check_point_exact(sec5_algebra, "both", 2)
    assert rep_r.ok and rep_l.ok


@pytest.mark.parametrize("side", ["right", "both"])
def test_point_exact_rejects_negative_max_degree(quantum_plane, side):
    with pytest.raises(ValueError):
        check_point_exact(quantum_plane, side, -1)


def test_point_exact_negative_control(negative_control):
    rep = check_point_exact(negative_control, "right", 2)
    assert not rep.ok
    assert rep.failed_degrees() == [3]


def test_pointwise_complex_exact_positive(quantum_plane):
    pair = check_g1(quantum_plane)
    for coords in [(1, 1), (1, 0), (0, 1), (2, -3)]:
        assert pointwise_complex_exact(quantum_plane, pair,
                                       ProjPoint(coords), 3)


def test_pointwise_complex_exact_commutative():
    comm = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    pair = check_g1(comm)
    assert pair is not None
    assert pointwise_complex_exact(comm, pair, ProjPoint([1, 0, 0]), 4)


def test_pointwise_complex_negative_control(negative_control):
    pair = check_g1(negative_control)
    assert pair is not None
    ring = geometry_ring(negative_control)
    x, y, z = ring.gens()
    assert [str(g) for g in pair.ideal.gens] == ["x*y*z"]
    assert not pointwise_complex_exact(negative_control, pair,
                                       ProjPoint([1, 1, 0]), 3)


def test_sigma_case3_lands_in_point_set(case3_algebra):
    f = sum_of_squares(case3_algebra)
    from conftest import quotient_resolutions
    res, _ = quotient_resolutions(case3_algebra, f, length=3,
                                  internal_cap=5)
    B = res["right"].presentation
    pair = check_g1(B, res)
    assert pair is not None
    pts = [(1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 0, 1), (0, 1, 0, -1),
           (0, 0, 1, 1), (0, 0, 1, -1), (1, 0, 1, 0), (1, 0, -1, 0),
           (0, 1, 1, 0), (0, 1, -1, 0), (1, 1, 0, 0), (1, -1, 0, 0)]
    point_set = {ProjPoint(p) for p in pts}
    image = sigma_at(pair, ProjPoint([1, 0, 0, 1]))
    assert image in point_set
    # (p, sigma(p)) satisfies the relation pairing
    assert vr_membership(B, ProjPoint([1, 0, 0, 1]), image)


def test_point_variety_well_defined_across_resolutions(case2_algebra):
    """The variety does not depend on which resolution produced the second
    differential (uniqueness up to scalar chain isomorphism)."""
    from quadralg.shamash import shamash
    from conftest import sum_of_squares
    f = sum_of_squares(case2_algebra)
    T, _ = shamash(case2_algebra,
                   linear_resolution(case2_algebra, "right", 3), f,
                   length=3, internal_cap=5)
    B = T.presentation
    from_tower = point_variety(B, "right", {"right": T})
    from_strand = point_variety(B, "right")
    from quadralg.groebner import variety_equal
    assert variety_equal(from_tower.ideal, from_strand.ideal)


def test_rank_dichotomy_on_sampled_points(sec5_quotient):
    """rank (d_2)_p < n exactly on the zero locus of the variety ideal."""
    pv = point_variety(sec5_quotient, "right")
    rng = random.Random(61)
    n = sec5_quotient.n
    for _ in range(25):
        coords = [QQ(rng.randint(-2, 2)) for _ in range(n)]
        if not any(coords):
            continue
        on_variety = all(not g.evaluate(coords) for g in pv.ideal.gens)
        assert (pv.matrix.rank_at(ProjPoint(coords)) < n) == on_variety


def test_quotient_rank_lower_bound_at_points(case3_algebra):
    """At points of the ambient variety, the quotient differential's rank
    dominates the sum of the ranks of the diagonal blocks."""
    from conftest import quotient_resolutions, sum_of_squares
    from quadralg.exactlinalg import exact_rank
    f = sum_of_squares(case3_algebra)
    res, _ = quotient_resolutions(case3_algebra, f, length=5,
                                  internal_cap=7)
    T = res["right"]
    P = linear_resolution(case3_algebra, "right", 5)
    XA = point_variety(case3_algebra, "right")
    ring = geometry_ring(case3_algebra)
    from quadralg.geometry import _small_points_on
    pts = _small_points_on(XA.ideal, ring, 1)[:6]
    assert pts
    ringB = geometry_ring(T.presentation)
    for p in pts:
        for i in range(1, 5):
            big = exact_rank(T.geometric_matrix(i, ringB).eval_at(p))
            small = 0
            for j in range(0, (i - 1) // 2 + 1):
                mat = P.geometric_matrix(i - 2 * j, ring)
                if mat.shape[1]:
                    small += exact_rank(mat.eval_at(p))
            assert big >= small


def test_quotient_inherits_geometry_for_monomial_quadric():
    """If the ambient skew algebra is semi-standard and point-exact, the
    quotient by a regular normal quadric is too (tower resolutions)."""
    from fractions import Fraction
    from conftest import quotient_resolutions
    q = [[1, 2, 3], [Fraction(1, 2), 1, 5],
         [Fraction(1, 3), Fraction(1, 5), 1]]
    A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3"], q)
    assert is_semi_standard(A)
    rep_r, rep_l = check_point_exact(A, "both", 2)
    assert rep_r.ok and rep_l.ok
    f = A.generator(0) * A.generator(1)
    res, _ = quotient_resolutions(A, f, length=4, internal_cap=6)
    B = res["right"].presentation
    assert is_semi_standard(B, res)
    assert check_point_exact(B, "right", 2, res).ok
    assert check_point_exact(B, "left", 2, res).ok


def test_point_variety_over_prime_field():
    from quadralg.scalars import GF
    F = GF(7)
    A = QuadraticPresentation.create(F, ["x", "y"],
                                     [{(0, 1): 1, (1, 0): -2}])
    pv = point_variety(A, "right")
    assert pv.ideal.is_zero_ideal()
    pair = check_g1(A)
    assert pair is not None
    assert sigma_at(pair, ProjPoint([1, 1], F)) == ProjPoint([1, 2], F)


def test_g1_pair_consistency(quantum_plane):
    """Whenever the pair exists, sigma is total on sampled points of E and
    (p, sigma(p)) passes the membership test."""
    pair = check_g1(quantum_plane)
    rng = random.Random(14)
    for _ in range(10):
        coords = [QQ(rng.randint(-3, 3)) for _ in range(2)]
        if not any(coords):
            continue
        p = ProjPoint(coords)
        q = sigma_at(pair, p)
        assert vr_membership(quantum_plane, p, q)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=3,
                max_size=3))
@settings(max_examples=12)
def test_skew_algebras_over_gf7_point_exact(params):
    # the paper's second theorem: skew polynomial algebras are point-exact
    F = GF(7)
    q = [[1] * 3 for _ in range(3)]
    for (i, j), a in zip([(0, 1), (0, 2), (1, 2)], params):
        q[i][j], q[j][i] = a, pow(a, -1, 7)
    A = QuadraticPresentation.skew(F, ["x", "y", "z"], q)
    right, left = check_point_exact(A, "both", 3)
    assert right.ok and left.ok
    assert len(right.evidence) == len(left.evidence) == 4


def _count_evaluations(monkeypatch):
    calls = []
    real = CommPoly.evaluate

    def counting(self, point):
        calls.append(1)
        return real(self, point)

    monkeypatch.setattr(CommPoly, "evaluate", counting)
    return calls


def test_small_point_scan_is_bounded_in_14_variables(monkeypatch):
    ring = PolyRing(QQ, [f"x{i}" for i in range(14)])
    x = ring.gens()
    ideal = Ideal(ring, [x[0] * x[1] - x[2] * x[2], x[12] * x[13]])
    calls = _count_evaluations(monkeypatch)
    found = _small_points_on(ideal, ring, radius=2)
    assert 0 < len(found) <= POINT_BUDGET
    assert len(calls) <= len(ideal.gens) * POINT_BUDGET
    assert all(all(not g.evaluate(pt.coords) for g in ideal.gens)
               for pt in found)


def test_small_point_scan_reaches_sparse_points_in_14_variables():
    # product order would spend the whole budget on vectors starting with
    # -2, -2, ..., none of which lies on this ideal
    ring = PolyRing(QQ, [f"x{i}" for i in range(14)])
    x = ring.gens()
    ideal = Ideal(ring, [x[0] * x[1] - x[2] * x[2], x[3] * x[4]])
    found = _small_points_on(ideal, ring, radius=2)
    assert ProjPoint([0, 0, 0, 1] + [0] * 10, QQ) in found
    assert all(all(not g.evaluate(pt.coords) for g in ideal.gens)
               for pt in found)


def test_small_point_scan_within_budget_is_the_whole_box_in_order():
    ring = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = ring.gens()
    ideal = Ideal(ring, [x * y - z * z])
    expected, seen = [], set()
    for coords in product(range(-2, 3), repeat=3):
        if any(coords) and coords[0] * coords[1] == coords[2] ** 2:
            pt = ProjPoint(coords, QQ)
            if pt not in seen:
                seen.add(pt)
                expected.append(pt)
    assert _small_points_on(ideal, ring, radius=2) == expected


def test_semi_standard_witness_scan_is_bounded_in_14_variables(monkeypatch):
    from quadralg.cli import _semi_standard_witness
    names = [f"x{i}" for i in range(14)]
    pres = QuadraticPresentation.commutative(QQ, names)
    ring = geometry_ring(pres)
    x = ring.gens()
    # the right locus is all of P^13; no point with x0 = -2 lies on x0 = 0
    right = PointVarietyIdeal("right", Ideal(ring, []), None, 14, 0)
    left = PointVarietyIdeal("left", Ideal(ring, [x[0]]), None, 14, 0)
    calls = _count_evaluations(monkeypatch)
    wit = _semi_standard_witness(pres, right, left)
    assert wit is not None and not left.contains_point(wit)
    calls.clear()
    assert _semi_standard_witness(pres, left, left) is None
    assert len(calls) <= 2 * POINT_BUDGET
