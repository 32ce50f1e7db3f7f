import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from quadralg.exactlinalg import exact_rank
from quadralg.linearforms import LinearFormMatrix, ProjPoint
from quadralg.polynomials import PolyRing
from quadralg.scalars import GF, QQ


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def rxyz():
    return PolyRing(QQ, ["x", "y", "z"])


def sec5_M(ring):
    z3 = (0, 0, 0)
    return LinearFormMatrix(ring, [
        [(0, 1, 0), (2, 0, 0), (0, 0, 1), (0, 1, 0)],
        [(1, 0, 0), (0, 0, 1), (0, 2, 0), z3],
        [(0, 0, 2), (0, 1, 0), (1, 0, 0), z3],
    ])


def sec5_N(ring):
    z3 = (0, 0, 0)
    return LinearFormMatrix(ring, [
        [(0, 1, 0), (1, 0, 0), (0, 0, 2)],
        [(2, 0, 0), (0, 0, 1), (0, 1, 0)],
        [(0, 0, 1), (0, 2, 0), (1, 0, 0)],
        [z3, (1, 0, 0), z3],
    ])


def test_projpoint_canonical_form():
    p = ProjPoint([0, 2, 4])
    assert p.coords == (Fraction(0), Fraction(1), Fraction(2))
    assert p == ProjPoint([0, 3, 6])
    assert p != ProjPoint([0, 1, 1])
    with pytest.raises(ValueError):
        ProjPoint([0, 0, 0])


def test_minors_of_quantum_plane_column(rxy):
    d2 = LinearFormMatrix(rxy, [[(0, 1)], [(-2, 0)]])
    assert {str(m) for m in d2.minors(1)} == {"x", "y"}
    assert d2.minors(2) == []


def test_eval_at_reference_values(rxy, rxyz):
    d2 = LinearFormMatrix(rxy, [[(0, 1)], [(-2, 0)]])
    assert d2.eval_at([1, 1]) == [[Fraction(1)], [Fraction(-2)]]
    M = sec5_M(rxyz)
    p = ProjPoint([1, 0, -1])
    assert M.rank_at(p) == 2          # < 3: the point lies on X_B
    N = sec5_N(rxyz)
    assert N.rank_at(p) == 3          # full: not on _BX


def test_eval_homogeneity(rxyz):
    rng = random.Random(5)
    M = LinearFormMatrix(rxyz, [[(rng.randint(-2, 2), rng.randint(-2, 2),
                                  rng.randint(-2, 2)) for _ in range(3)]
                                for _ in range(2)])
    p = [QQ(1), QQ(2), QQ(-1)]
    p3 = [3 * c for c in p]
    a = M.eval_at(p)
    b = M.eval_at(p3)
    assert all(b[i][j] == 3 * a[i][j] for i in range(2) for j in range(3))
    assert exact_rank(a) == exact_rank(b)


def test_minors_determinantal_law(rxyz):
    """rank(M_p) < t iff every t-minor vanishes at p (random instances)."""
    rng = random.Random(12)
    for _ in range(12):
        s = rng.randint(1, 3)
        r = rng.randint(1, 3)
        M = LinearFormMatrix(rxyz, [[(rng.randint(-1, 1), rng.randint(-1, 1),
                                      rng.randint(-1, 1)) for _ in range(r)]
                                    for _ in range(s)])
        coords = [QQ(rng.randint(-2, 2)) for _ in range(3)]
        if not any(coords):
            coords[0] = QQ(1)
        rank = exact_rank(M.eval_at(coords))
        for t in range(1, min(s, r) + 1):
            vanish = all(m.evaluate(coords) == 0 for m in M.minors(t))
            assert vanish == (rank < t)


def test_minor_normalization_dedupe(rxyz):
    # two proportional columns: one normalized minor survives
    M = LinearFormMatrix(rxyz, [[(1, 0, 0), (2, 0, 0)],
                                [(0, 1, 0), (0, 2, 0)]])
    ones = M.minors(1)
    assert {str(m) for m in ones} == {"x", "y"}
    twos = M.minors(2)
    assert twos == []  # both 2-minors are identically zero


def test_minor_size_validation(rxy):
    M = LinearFormMatrix(rxy, [[(1, 0)]])
    with pytest.raises(ValueError):
        M.minors(0)


def test_rank_nullity_transfer(rxyz):
    """Random M, N with M_p N_q = 0: rank M_p >= t forces
    rank N_q <= r - t."""
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        s, r, l = rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 3)
        M = LinearFormMatrix(rxyz, [[(rng.randint(-2, 2), rng.randint(-2, 2),
                                      rng.randint(-2, 2)) for _ in range(r)]
                                    for _ in range(s)])
        p = [QQ(rng.randint(-2, 2)) for _ in range(3)]
        if not any(p):
            continue
        q = [QQ(rng.randint(-2, 2)) for _ in range(3)]
        if not any(q):
            continue
        Mp = M.eval_at(p)
        # kernel columns of M_p give N_q; lift to linear forms via a form
        # that is 1 at q
        from quadralg.exactlinalg import nullspace
        rows = [{j: Mp[i][j] for j in range(r) if Mp[i][j]}
                for i in range(s)]
        kern = nullspace(rows, r)
        if not kern:
            continue
        pick = [kern[rng.randrange(len(kern))] for _ in range(l)]
        lam_idx = next(i for i, c in enumerate(q) if c)
        lam = [QQ.zero] * 3
        lam[lam_idx] = QQ.inv(q[lam_idx])
        N = LinearFormMatrix(rxyz, [[tuple(col.get(i, QQ.zero) * c
                                           for c in lam)
                                     for col in pick] for i in range(r)])
        Nq = N.eval_at(q)
        prod = [[sum((Mp[i][k] * Nq[k][j] for k in range(r)), QQ.zero)
                 for j in range(l)] for i in range(s)]
        assert all(v == 0 for row in prod for v in row)
        t = exact_rank(Mp)
        assert exact_rank(Nq) <= r - t
        checked += 1


def _reference_minors(M, t):
    """Plain Laplace expansion in Fractions (ints mod p over GF(p)), with
    no memo, then normalized, deduplicated and sorted as documented."""
    ring = M.ring
    n = ring.nvars
    p = 0 if ring.field == QQ else ring.field.p

    def det(rows, cols):
        if not rows:
            return {(0,) * n: 1 if p else Fraction(1)}
        total = {}
        for pos, j in enumerate(cols):
            sub = det(rows[1:], cols[:pos] + cols[pos + 1:])
            for i, c in enumerate(M.rows[rows[0]][j]):
                c = c.val if p else Fraction(c)
                for e, v in sub.items():
                    e = e[:i] + (e[i] + 1,) + e[i + 1:]
                    total[e] = total.get(e, 0) + (-c if pos % 2 else c) * v
        if p:
            total = {e: v % p for e, v in total.items()}
        return {e: v for e, v in total.items() if v}

    key = ring.order.key
    out = []
    for rows in combinations(range(M.shape[0]), t):
        for cols in combinations(range(M.shape[1]), t):
            m = det(rows, cols)
            if not m:
                continue
            lc = m[max(m, key=key)]
            if p:
                m = {e: v * pow(lc, -1, p) % p for e, v in m.items()}
            else:
                m = {e: v / lc for e, v in m.items()}
                den = lcm(*(v.denominator for v in m.values()))
                g = gcd(*(int(v * den) for v in m.values()))
                m = {e: Fraction(int(v * den), g) for e, v in m.items()}
            if m not in out:
                out.append(m)
    out.sort(key=lambda m: key(max(m, key=key)))
    return out


_COEFFS = [Fraction(0)] * 4 + [Fraction(a, b) for a in (-3, -1, 1, 2)
                               for b in (1, 2, 3)]


@given(st.data())
@settings(max_examples=80)
def test_minors_match_fraction_laplace_reference(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]))
    n = data.draw(st.integers(1, 3))
    s, r = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    coeff = (st.sampled_from(_COEFFS) if field == QQ
             else st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5, 6]))
    rows = data.draw(st.lists(st.lists(st.lists(coeff, min_size=n,
                                                max_size=n),
                                       min_size=r, max_size=r),
                              min_size=s, max_size=s))
    if s > 1 and data.draw(st.booleans()):
        k = data.draw(st.sampled_from([Fraction(-2, 3), Fraction(5)]
                                      if field == QQ else [3, 6]))
        rows[-1] = [[c * k for c in entry] for entry in rows[0]]
    M = LinearFormMatrix(PolyRing(field, ["x", "y", "z"][:n]), rows)
    for t in range(1, min(s, r) + 2):
        got = [{e: (c if field == QQ else c.val) for e, c in m.terms.items()}
               for m in M.minors(t)]
        assert got == _reference_minors(M, t)
