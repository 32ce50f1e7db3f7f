"""Acceptance suite: one test per criterion, with a pass/fail line each.

Criteria 5, 6 and 9 check the main theorem on quotients B = A/(f) by a
regular normal quadric f.  The generic-skew-3 case (the 3-dimensional skew
algebra with parameters 2, 3, 5) uses f = x1 x2: its sum of squares admits no
normalizing automorphism (see the README and
tests/test_shamash.py::test_shamash_rejects_generic_skew_sum_of_squares), so
it is outside the theorem's hypothesis.  x1 x2 keeps what the case adds over
the others, a homotopy tower twisted by a sigma that is not a sign change.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from quadralg.algebra import (QuadraticPresentation, is_normal,
                              is_regular_up_to)
from quadralg.cones import canonical_skew_resolution, extension_scalars
from quadralg.exactlinalg import exact_rank, nullspace
from quadralg.geometry import (check_g1, check_point_exact, is_semi_standard,
                               point_variety, sigma_at)
from quadralg.groebner import (Ideal, intersect_all, radical_member,
                               variety_equal)
from quadralg.linearforms import LinearFormMatrix, ProjPoint
from quadralg.resolutions import (FreeComplex, FreeModuleMap, geometry_ring,
                                  linear_resolution,
                                  scalar_chain_isomorphism)
from quadralg.shamash import shamash
from quadralg.scalars import QQ
from conftest import quotient_resolutions, sum_of_squares, vr_empty_oracle


def report(criterion, ok, detail=""):
    print(f"acceptance criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------- fixtures

QUADRIC_CASE_NAMES = ["commutative-3", "commutative-4", "skew-pm1-4",
                      "generic-skew-3"]


def _make_case(name):
    if name == "commutative-3":
        A = QuadraticPresentation.commutative(QQ, ["x1", "x2", "x3"])
    elif name == "commutative-4":
        A = QuadraticPresentation.commutative(QQ, ["x1", "x2", "x3", "x4"])
    elif name == "skew-pm1-4":
        q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
        A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"], q)
    elif name == "generic-skew-3":
        q = [[1, 2, 3], [Fraction(1, 2), 1, 5],
             [Fraction(1, 3), Fraction(1, 5), 1]]
        A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3"], q)
        # the sum of squares is not normal here; x1 x2 is, with
        # sigma = diag(2, 1/2, 1/15)
        return A, A.generator(0) * A.generator(1)
    else:
        raise KeyError(name)
    return A, sum_of_squares(A)


@pytest.fixture(scope="module")
def quadric_cases():
    cases = {}
    for name in QUADRIC_CASE_NAMES:
        A, f = _make_case(name)
        entry = {"A": A, "f": f, "sigma": is_normal(f)}
        if name == "generic-skew-3":
            # keep this case twisted: sigma must not be a sign change
            assert entry["sigma"] is not None
            assert any(v not in (0, 1, -1)
                       for row in entry["sigma"].matrix for v in row)
        if entry["sigma"] is not None:
            entry["resolutions"], entry["towers"] = \
                quotient_resolutions(A, f, length=6, internal_cap=8)
        cases[name] = entry
    return cases


@pytest.fixture(scope="module")
def sec5_setup(sec5_algebra, sec5_quotient):
    right = linear_resolution(sec5_quotient, "right", 2, check="report")
    left = linear_resolution(sec5_quotient, "left", 2, check="report")
    return {"right": right, "left": left}


# ------------------------------------------------------------ criterion 1

def test_criterion_1_quantum_plane(quantum_plane):
    A = quantum_plane
    x, y = A.generator(0), A.generator(1)
    right = linear_resolution(A, "right", 3)
    displayed_right = FreeComplex(A, "right", [
        FreeModuleMap(A, (0,), (1, 1), [[x, y]]),
        FreeModuleMap(A, (1, 1), (2,), [[y], [x.scale(-2)]]),
        FreeModuleMap(A, (2,), (), [[]]),
    ])
    ok = scalar_chain_isomorphism(displayed_right, right) is not None
    left = linear_resolution(A, "left", 3)
    op = A.opposite()
    xo, yo = op.generator(0), op.generator(1)
    displayed_left = FreeComplex(op, "right", [
        FreeModuleMap(op, (0,), (1, 1), [[xo, yo]]),
        FreeModuleMap(op, (1, 1), (2,), [[yo.scale(-2)], [xo]]),
        FreeModuleMap(op, (2,), (), [[]]),
    ])
    ok = ok and scalar_chain_isomorphism(displayed_left, left) is not None
    ok = ok and point_variety(A, "right").ideal.is_zero_ideal()
    ok = ok and point_variety(A, "left").ideal.is_zero_ideal()
    pair = check_g1(A)
    ok = ok and pair is not None
    ok = ok and sigma_at(pair, ProjPoint([1, 1])) == ProjPoint([1, 2])
    ok = ok and sigma_at(pair, ProjPoint([0, 1])) == ProjPoint([0, 1])
    report(1, ok, "quantum plane: resolutions, varieties, (G1), sigma")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_sec5_counterexample(sec5_algebra, sec5_quotient,
                                         sec5_setup):
    A, B = sec5_algebra, sec5_quotient
    x, y = A.generator(0), A.generator(1)
    ok = is_normal(x * y) is None
    right = point_variety(B, "right", sec5_setup)
    left = point_variety(B, "left", sec5_setup)
    ring = right.ideal.ring
    xx, yy, zz = ring.gens()
    displayed_right = [10 * xx * yy * zz - 2 * (yy ** 3 + xx ** 3 + zz ** 3),
                       yy * (xx * yy - 2 * zz * zz),
                       yy * (zz * xx - 2 * yy * yy),
                       yy * (xx * xx - 4 * yy * zz)]
    displayed_left = [10 * xx * yy * zz - 2 * (yy ** 3 + xx ** 3 + zz ** 3),
                      xx * (xx * yy - 2 * zz * zz),
                      xx * (yy * zz - 2 * xx * xx),
                      xx * (4 * xx * zz - yy * yy)]
    ok = ok and all(radical_member(g, right.ideal) for g in displayed_right)
    ok = ok and all(radical_member(g, left.ideal) for g in displayed_left)
    w = ProjPoint([1, 0, -1])
    ok = ok and right.matrix.rank_at(w) < 3
    ok = ok and left.matrix.rank_at(w) == 3
    ok = ok and right.contains_point(w) and not left.contains_point(w)
    ok = ok and not is_semi_standard(B, sec5_setup)
    report(2, ok, "non-normal quotient: displayed generators, witness "
                  "(1:0:-1), not semi-standard")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_case2_minors(case2_algebra):
    A = case2_algebra
    f = sum_of_squares(A)
    T, _ = shamash(A, linear_resolution(A, "right", 3), f, length=3,
                   internal_cap=5)
    B = T.presentation
    pv = point_variety(B, "right", {"right": T})
    ring = pv.ideal.ring
    x1, x2, x3, x4 = ring.gens()
    printed = [
        2 * x1**2 * x2 * x3, -2 * x1 * x2**2 * x3, -2 * x1 * x2 * x3**2,
        -2 * x2**2 * x3 * x4, -2 * x2 * x3**2 * x4, 2 * x2 * x3 * x4**2,
        2 * x1 * x2 * x3 * x4,
        -x1**4 + x1**2 * x2**2 + x1**2 * x3**2 - x1**2 * x4**2,
        -x1**2 * x2**2 + x2**4 - x2**2 * x3**2 - x2**2 * x4**2,
        x1**2 * x3**2 + x2**2 * x3**2 - x3**4 + x3**2 * x4**2,
        -x1**2 * x4**2 + x2**2 * x4**2 + x3**2 * x4**2 - x4**4,
        x1**3 * x4 - x1 * x2**2 * x4 - x1 * x3**2 * x4 + x1 * x4**3,
        -x1**3 * x2 + x1 * x2**3 + x1 * x2 * x3**2 - x1 * x2 * x4**2,
        x1**3 * x2 - x1 * x2**3 + x1 * x2 * x3**2 + x1 * x2 * x4**2,
        -x1**3 * x3 + x1 * x2**2 * x3 + x1 * x3**3 - x1 * x3 * x4**2,
        -x1**3 * x3 - x1 * x2**2 * x3 + x1 * x3**3 - x1 * x3 * x4**2,
        -x1**2 * x2 * x3 + x2**3 * x3 - x2 * x3**3 + x2 * x3 * x4**2,
        x1**2 * x2 * x3 + x2**3 * x3 - x2 * x3**3 - x2 * x3 * x4**2,
        x1**2 * x2 * x4 - x2**3 * x4 - x2 * x3**2 * x4 + x2 * x4**3,
        x1**2 * x2 * x4 - x2**3 * x4 + x2 * x3**2 * x4 + x2 * x4**3,
        x1**2 * x3 * x4 - x2**2 * x3 * x4 - x3**3 * x4 + x3 * x4**3,
        -x1**2 * x3 * x4 - x2**2 * x3 * x4 + x3**3 * x4 - x3 * x4**3,
    ]
    printed_norm = {frozenset(p.primitive().terms.items()) for p in printed}
    mine = {frozenset(p.terms.items()) for p in pv.ideal.gens}
    ok = printed_norm == mine
    # E_B = two points union two plane conics
    pt1 = Ideal(ring, [x1, x4, x2 - x3])
    pt2 = Ideal(ring, [x1, x4, x2 + x3])
    f1 = Ideal(ring, [x2, -x1**2 + x3**2 - x4**2])
    f2 = Ideal(ring, [x3, -x1**2 + x2**2 - x4**2])
    union = intersect_all([pt1, pt2, f1, f2])
    ok = ok and variety_equal(pv.ideal, union)
    report(3, ok, "plus-minus-one skew quadric, case 2: printed 4-minors "
                  "and component decomposition")


# ------------------------------------------------------------ criterion 4

CASE3_POINTS = [(1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 0, 1), (0, 1, 0, -1),
                (0, 0, 1, 1), (0, 0, 1, -1), (1, 0, 1, 0), (1, 0, -1, 0),
                (0, 1, 1, 0), (0, 1, -1, 0), (1, 1, 0, 0), (1, -1, 0, 0)]


def test_criterion_4_case3_points(quadric_cases):
    entry = quadric_cases["skew-pm1-4"]
    T = entry["resolutions"]["right"]
    B = T.presentation
    pv = point_variety(B, "right", entry["resolutions"])
    ring = pv.ideal.ring
    ok = all(pv.contains_point(ProjPoint(p)) for p in CASE3_POINTS)

    def point_ideal(p):
        pivot = next(i for i, c in enumerate(p) if c)
        gens = []
        for i in range(4):
            if i != pivot:
                gens.append(ring.var(i) * p[pivot] - ring.var(pivot) * p[i])
        return Ideal(ring, gens)

    vanishing = intersect_all([point_ideal(p) for p in CASE3_POINTS])
    ok = ok and variety_equal(pv.ideal, vanishing)
    report(4, ok, "plus-minus-one skew quadric, case 3: exactly the 12 "
                  "printed points")


# ------------------------------------------------------------ criterion 5

@pytest.mark.parametrize("name", QUADRIC_CASE_NAMES)
def test_criterion_5_quotient_construction(quadric_cases, name):
    entry = quadric_cases[name]
    A, f = entry["A"], entry["f"]
    n = A.n
    if entry["sigma"] is None:
        report(5, False, f"[{name}] f admits no normalizing automorphism")
    ok = is_regular_up_to(f, 6)
    T = entry["resolutions"]["right"]
    rep = T.meta["verification"]
    ok = ok and rep.all_composites_zero
    ok = ok and all(v == 0 for v in rep.homology.values())
    ok = ok and all(rep.augmentation.values())
    ok = ok and rep.internal_cap == 8
    ok = ok and rep.minimal
    expect = [sum(comb(n, i - 2 * j) for j in range(i // 2 + 1))
              for i in range(7)]
    ok = ok and T.ranks() == expect
    report(5, ok, f"[{name}] normal + regular + exact minimal quotient "
                  f"resolution with ranks {expect}")


# ------------------------------------------------------------ criterion 6

@pytest.mark.parametrize("name", QUADRIC_CASE_NAMES)
def test_criterion_6_homotopy_identities(quadric_cases, name):
    entry = quadric_cases[name]
    if entry["sigma"] is None:
        report(6, False, f"[{name}] no tower was built: f admits no "
               "normalizing automorphism")
    ok = True
    for side in ("right", "left"):
        tower = entry["towers"][side]
        for nn in (1, 2, 3):
            for l in range(0, 6 - 2 * nn + 1):
                ok = ok and tower.splitting_identity_holds(nn, l)
    report(6, ok, f"[{name}] homotopy sum identities for n = 1, 2, 3 on "
                  "both towers")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_univariate_patterns():
    A = QuadraticPresentation.commutative(QQ, ["x"])
    P = linear_resolution(A, "right", 6)
    x = A.generator(0)
    T1, _ = shamash(A, P, x, length=6)
    rep1 = T1.meta["verification"]
    ok = not rep1.minimal
    ok = ok and all(v == 0 for v in rep1.homology.values())
    for i, d in enumerate(T1.maps, start=1):
        e = d.entries[0][0]
        if i % 2 == 1:
            ok = ok and e.is_zero()
        else:
            ok = ok and e.degree == 0 and e.coords == {0: QQ(1)}
    # degree-2 companion: the quotient by x^2 is minimal with entries x
    T2, _ = shamash(A, P, x * x, length=6)
    ok = ok and T2.meta["verification"].minimal
    xb = T2.presentation.generator(0)
    ok = ok and all(d.entries[0][0] == xb for d in T2.maps)
    report(7, ok, "k[x]: alternating identity/zero non-minimal pattern for "
                  "f = x; minimal x-pattern for f = x^2")


# ------------------------------------------------------------ criterion 8

@pytest.mark.parametrize("name,n,q", [
    ("dim-2", 2, [[1, Fraction(1, 2)], [2, 1]]),
    ("dim-3", 3, [[1, 2, 3], [Fraction(1, 2), 1, 5],
                  [Fraction(1, 3), Fraction(1, 5), 1]]),
    ("dim-4", 4, [[1 if i == j else -1 for j in range(4)]
                  for i in range(4)]),
])
def test_criterion_8_canonical_resolutions(name, n, q):
    pres = QuadraticPresentation.skew(QQ, [f"x{i+1}" for i in range(n)], q)
    canon = canonical_skew_resolution(pres, length=n + 1)
    ok = canon.ranks() == [comb(n, i) for i in range(n + 2)]
    # extension maps at every stage: x_new times an invertible diagonal
    for stage in range(1, n):
        sub = [row[:stage] for row in q[:stage]]
        col = [q[i][stage] for i in range(stage)]
        scalars = extension_scalars(sub, col)
        ok = ok and all(s != 0 for level in scalars for s in level)
        ok = ok and [len(level) for level in scalars] == \
            [comb(stage, i) for i in range(stage + 1)]
    # monomial entries
    for m in canon.maps:
        for row in m.entries:
            for e in row:
                ok = ok and len(e.coords) <= 1
    lin = linear_resolution(pres, "right", n + 1)
    ok = ok and scalar_chain_isomorphism(canon, lin) is not None
    report(8, ok, f"[{name}] canonical skew resolution: binomial ranks, "
                  "diagonal extension maps, monomial entries, chain-"
                  "isomorphic to the computed linear resolution")


# ------------------------------------------------------------ criterion 9

@pytest.mark.parametrize("name", QUADRIC_CASE_NAMES)
def test_criterion_9_base_point_exact(quadric_cases, name):
    A = quadric_cases[name]["A"]
    rep_r, rep_l = check_point_exact(A, "both", 3)
    ok = rep_r.ok and rep_l.ok
    report(9, ok, f"[{name}] ambient algebra point-exact up to 3, both sides")


@pytest.mark.parametrize("name", QUADRIC_CASE_NAMES)
def test_criterion_9_quotient_point_exact(quadric_cases, name):
    entry = quadric_cases[name]
    if entry["sigma"] is None:
        report(9, False, f"[{name}] quotient resolution cannot be built: "
               "f admits no normalizing automorphism")
    res = entry["resolutions"]
    B = res["right"].presentation
    ok = is_semi_standard(B, res)
    rep_r = check_point_exact(B, "right", 3, res)
    rep_l = check_point_exact(B, "left", 3, res)
    ok = ok and rep_r.ok and rep_l.ok
    report(9, ok, f"[{name}] quotient semi-standard and point-exact up to "
                  "3, both sides")


# ----------------------------------------------------------- criterion 10

def test_criterion_10_rank_nullity_transfer():
    rng = random.Random(20260810)
    ring = geometry_ring(QuadraticPresentation.commutative(
        QQ, ["x", "y", "z"]))
    checked = 0
    while checked < 100:
        s, r, l = rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 3)
        M = LinearFormMatrix(ring, [[(rng.randint(-2, 2), rng.randint(-2, 2),
                                      rng.randint(-2, 2))
                                     for _ in range(r)] for _ in range(s)])
        p = [QQ(rng.randint(-2, 2)) for _ in range(3)]
        q = [QQ(rng.randint(-2, 2)) for _ in range(3)]
        if not any(p) or not any(q):
            continue
        Mp = M.eval_at(p)
        rows = [{j: Mp[i][j] for j in range(r) if Mp[i][j]}
                for i in range(s)]
        kern = nullspace(rows, r)
        if not kern:
            continue
        pick = [kern[rng.randrange(len(kern))] for _ in range(l)]
        lam_idx = next(i for i, c in enumerate(q) if c)
        lam = [QQ.zero] * 3
        lam[lam_idx] = QQ.inv(q[lam_idx])
        N = LinearFormMatrix(ring, [[tuple(col.get(i, QQ.zero) * c
                                           for c in lam) for col in pick]
                                    for i in range(r)])
        Nq = N.eval_at(q)
        prod = [[sum((Mp[i][k] * Nq[k][j] for k in range(r)), QQ.zero)
                 for j in range(l)] for i in range(s)]
        assert all(v == 0 for row in prod for v in row)
        t = exact_rank(Mp)
        assert exact_rank(Nq) <= r - t
        checked += 1
    report(10, True, "rank-nullity transfer on 100 instances")


def test_criterion_10_hilbert_random_skew():
    rng = random.Random(811)
    count = 0
    for _ in range(10):
        n = rng.randint(2, 3)
        q = [[Fraction(1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                q[i][j] = v
                q[j][i] = 1 / v
        pres = QuadraticPresentation.skew(
            QQ, [f"y{k}{count}" for k in range(n)], q)
        for d in range(7):
            assert pres.dim(d) == comb(n + d - 1, d)
        count += 1
    report(10, True, "Hilbert dimensions of 10 random skew algebras, d <= 6")


def test_criterion_10_vr_two_sided(quantum_plane, sec5_algebra):
    from quadralg.geometry import vr_membership
    rng = random.Random(3377)
    pairs_checked = 0
    for pres in (quantum_plane, sec5_algebra):
        n = pres.n
        ring = geometry_ring(pres)
        right = linear_resolution(pres, "right", 2)
        left = linear_resolution(pres, "left", 2)
        d1 = right.geometric_matrix(1, ring)
        d2 = right.geometric_matrix(2, ring)
        h1 = left.geometric_matrix(1, ring)
        h2 = left.geometric_matrix(2, ring)
        while pairs_checked < (100 if pres is quantum_plane else 200):
            p = [QQ(rng.randint(-2, 2)) for _ in range(n)]
            q = [QQ(rng.randint(-2, 2)) for _ in range(n)]
            if not any(p) or not any(q):
                continue
            d1p, d2q = d1.eval_at(p), d2.eval_at(q)
            lhs = all(sum((d1p[0][k] * d2q[k][j] for k in range(n)),
                          QQ.zero) == 0 for j in range(d2.shape[1]))
            h2p, h1q = h2.eval_at(p), h1.eval_at(q)
            rhs = all(sum((h2p[i][k] * h1q[k][0] for k in range(n)),
                          QQ.zero) == 0 for i in range(h2.shape[0]))
            assert lhs == rhs == vr_membership(pres, p, q)
            pairs_checked += 1
    report(10, True, "two-sided relation-pairing criterion on 200 pairs")


def test_criterion_10_emptiness_equivalence():
    from quadralg.groebner import projective_empty
    rng = random.Random(40)
    words = [(u, v) for u in range(2) for v in range(2)]
    tested = 0
    attempts = 0
    while tested < 20 and attempts < 400:
        attempts += 1
        k = rng.randint(1, 4)
        rels = []
        for w in rng.sample(words, k):
            rel = {w: QQ(1)}
            w2 = rng.choice(words)
            if w2 != w and rng.random() < 0.5:
                rel[w2] = QQ(rng.randint(-2, 2))
            rels.append({a: b for a, b in rel.items() if b})
        pres = QuadraticPresentation.create(QQ, [f"u{tested}", f"v{tested}"],
                                            rels)
        if pres.r != k:
            continue
        vr_empty = vr_empty_oracle(pres)
        right_empty = projective_empty(
            point_variety(pres, "right").ideal)
        left_empty = projective_empty(point_variety(pres, "left").ideal)
        assert vr_empty == right_empty == left_empty
        tested += 1
    assert tested == 20
    report(10, True, "V(R)/X/_X emptiness equivalence on 20 random algebras")
