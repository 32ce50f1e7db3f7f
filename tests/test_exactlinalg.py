import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quadralg.exactlinalg import (MODULAR_PRIMES, PrimeClash, ResidueColumns,
                                  RowSpace, exact_rank, invert_matrix,
                                  mat_mul, modular_rank, nullspace,
                                  over_working_primes, rank_of_columns,
                                  residue, solve_batch)
from quadralg.scalars import QQ, GF


def brute_rank(rows):
    """Independent rank oracle: largest size of a nonzero minor."""
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])

    def det(r_idx, c_idx):
        if not r_idx:
            return Fraction(1)
        total = Fraction(0)
        r0 = r_idx[0]
        for pos, c in enumerate(c_idx):
            if rows[r0][c] == 0:
                continue
            sub = det(r_idx[1:], c_idx[:pos] + c_idx[pos + 1:])
            term = rows[r0][c] * sub
            total += term if pos % 2 == 0 else -term
        return total

    for t in range(min(m, n), 0, -1):
        for rs in combinations(range(m), t):
            for cs in combinations(range(n), t):
                if det(rs, cs) != 0:
                    return t
    return 0


def test_rank_trivial_cases():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert exact_rank(eye) == 3
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0


def test_rank_matches_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(m)]
        assert exact_rank(rows) == brute_rank(rows)


def test_rank_over_prime_field():
    F = GF(5)
    rows = [[F(1), F(2)], [F(2), F(4)]]  # second row = 2 * first
    assert exact_rank(rows, F) == 1
    rows = [[F(1), F(2)], [F(2), F(5)]]  # F(5) == 0
    assert exact_rank(rows, F) == 2
    # int multiples of p are truthy but zero in F_p
    assert exact_rank([[5, 10], [15, 0]], F) == 0
    assert exact_rank([{0: 5, 1: 1}, {0: 10, 1: 2}], F) == 1


def test_rowspace_canonical_reduction():
    space = RowSpace(QQ)
    assert space.add({0: Fraction(2), 1: Fraction(4)})
    assert not space.add({0: Fraction(1), 1: Fraction(2)})
    assert space.add({1: Fraction(1)})
    # fully reduced: first row no longer involves column 1
    assert space.pivots[0] == {0: Fraction(1)}
    assert space.reduce({0: Fraction(3), 1: Fraction(5), 2: Fraction(7)}) \
        == {2: Fraction(7)}


def test_nullspace_canonical():
    # x + 2y + 3z = 0 -> free columns 1, 2
    basis = nullspace([{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}], 3)
    assert basis == [{1: Fraction(1), 0: Fraction(-2)},
                     {2: Fraction(1), 0: Fraction(-3)}]


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        rows = [{j: Fraction(rng.randint(-2, 2)) for j in range(n)
                 if rng.random() < 0.7} for _ in range(m)]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        for vec in nullspace(rows, n):
            for r in rows:
                total = sum((r.get(j, Fraction(0)) * v
                             for j, v in vec.items()), Fraction(0))
                assert total == 0


def test_solve_batch_particular_and_inconsistent():
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(1), 1: Fraction(1)}]
    sols = solve_batch(rows, 2, [{0: Fraction(2), 1: Fraction(2)},
                                 {0: Fraction(1), 1: Fraction(2)}], QQ)
    # first rhs consistent (free variable set to zero), second not
    assert sols[0] == {0: Fraction(2)}
    assert sols[1] is None


def residue_columns(columns, p):
    """Rational columns reduced mod p; raises PrimeClash."""
    return ResidueColumns(p, [{i: r for i, v in col.items()
                               if (r := residue(v, p))} for col in columns])


def test_modular_rank_bounds_exact():
    rng = random.Random(3)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cols = [{i: Fraction(rng.randint(-4, 4)) for i in range(m)
                 if rng.random() < 0.8} for _ in range(n)]
        cols = [{i: v for i, v in c.items() if v} for c in cols]
        rm = modular_rank(residue_columns(cols, MODULAR_PRIMES[0]), m)
        re = rank_of_columns(cols, m, QQ)
        assert rm <= re
        assert rm == re  # random small integer matrices never collide


def test_invert_and_mul():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(a, QQ)
    prod = mat_mul(a, inv, QQ)
    assert prod == [[1, 0], [0, 1]]
    assert invert_matrix([[Fraction(1), Fraction(2)],
                          [Fraction(2), Fraction(4)]], QQ) is None


# ------------------------------------------- ranks mod p and the primes

RANK_PRIMES = (2, 3, 32003, MODULAR_PRIMES[0])


@st.composite
def column_matrices(draw):
    """(p, columns, nrows): sparse or dense rational columns whose
    denominators are prime to p, with some columns made dependent."""
    p = draw(st.sampled_from(RANK_PRIMES))
    nrows = draw(st.integers(0, 14))
    ncols = draw(st.integers(0, 14))
    value = st.builds(Fraction, st.integers(-2**40, 2**40),
                      st.integers(1, 60).filter(lambda d: d % p))
    if draw(st.booleans()):
        rows = st.sets(st.integers(0, max(nrows - 1, 0)), max_size=3)
    else:
        rows = st.just(set(range(nrows)))
    columns = []
    for _ in range(ncols):
        columns.append({i: draw(value) for i in sorted(draw(rows))
                        if i < nrows})
    for _ in range(draw(st.integers(0, 4)) if columns else 0):
        a, b = (draw(st.sampled_from(columns)) for _ in range(2))
        s, t = draw(value), draw(value)
        combo = {i: s * a.get(i, 0) + t * b.get(i, 0) for i in {*a, *b}}
        columns.append({i: v for i, v in combo.items() if v})
    return p, columns, nrows


def _rowspace_rank(columns, p):
    field = GF(p)
    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = field(v)
    space = RowSpace(field)
    for row in rows.values():
        space.add({j: v for j, v in row.items() if v})
    return space.rank


@settings(max_examples=150, deadline=None)
@given(column_matrices())
def test_rank_mod_p_agrees_with_rowspace(case):
    p, columns, nrows = case
    assert (modular_rank(residue_columns(columns, p), nrows)
            == _rowspace_rank(columns, p))


def _certificate(columns, nrows, tried):
    """The modular rank of rational columns at the first working prime that
    clashes with no denominator, recording each prime tried."""
    def attempt(p):
        tried.append(p)
        return modular_rank(residue_columns(columns, p), nrows)

    return over_working_primes(attempt)


def test_modular_rank_moves_past_a_clashing_prime():
    columns = [{0: Fraction(1, MODULAR_PRIMES[0]), 1: Fraction(1)},
               {0: Fraction(2), 1: Fraction(3)}]
    with pytest.raises(PrimeClash):
        residue_columns(columns, MODULAR_PRIMES[0])
    tried = []
    assert _certificate(columns, 2, tried) == 2
    assert tried == list(MODULAR_PRIMES[:2])


def test_modular_rank_certifies_nothing_when_every_prime_clashes():
    n = 1
    for p in MODULAR_PRIMES:
        n *= p
    columns = [{0: Fraction(1, n)}, {1: Fraction(1)}]
    tried = []
    assert _certificate(columns, 2, tried) is None
    assert tried == list(MODULAR_PRIMES)
    assert rank_of_columns(columns, 2, QQ) == 2


def test_modular_rank_of_residue_columns_uses_their_prime():
    p = 7
    columns = ResidueColumns(p, [{0: 1, 1: 2}, {0: 3, 1: 6}, {2: 5}])
    assert modular_rank(columns, 3) == 2
    assert columns == [{0: 1, 1: 2}, {0: 3, 1: 6}, {2: 5}]  # not consumed
    assert modular_rank(ResidueColumns(5, [{0: 1, 1: 2}, {0: 3, 1: 1}]),
                        2) == 1


# ------------------------------------- differential tests of both kernels

RATIONALS = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-3, 3),
                                st.integers(1, 3)))


def _residues(p):
    """Entries for GF(p): ints (multiples of p included) and elements."""
    return st.one_of(st.integers(-3 * p, 3 * p),
                     st.integers(0, p - 1).map(GF(p)))


@st.composite
def matrices(draw, values, square=False):
    m = draw(st.integers(0, 4))
    n = m if square else draw(st.integers(0, 4))
    return [[draw(values) for _ in range(n)] for _ in range(m)]


def _sparse(rows):
    """The same rows as dicts; int multiples of p are truthy and stay."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _columns(rows):
    return _sparse(_transpose(rows))


@settings(max_examples=120)
@given(matrices(RATIONALS))
def test_exact_rank_over_qq_dense_and_sparse(rows):
    rank = brute_rank(rows)
    assert exact_rank(rows, QQ) == rank
    assert exact_rank(_sparse(rows), QQ) == rank
    assert exact_rank(_transpose(rows), QQ) == rank
    assert rank_of_columns(_columns(rows), len(rows), QQ) == rank


@settings(max_examples=120)
@given(st.sampled_from((5, 7)).flatmap(
    lambda p: st.tuples(st.just(p), matrices(_residues(p)))))
def test_exact_rank_over_gf_dense_and_sparse(case):
    p, rows = case
    field = GF(p)
    rank = _rowspace_rank(_columns(rows), p)
    assert exact_rank(rows, field) == rank
    assert exact_rank(_sparse(rows), field) == rank
    assert exact_rank(_transpose(rows), field) == rank
    assert rank_of_columns(_columns(rows), len(rows), field) == rank


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=100)
@given(matrices(RATIONALS, square=True))
def test_invert_matrix_over_qq(rows):
    inv = invert_matrix(rows, QQ)
    if brute_rank(rows) < len(rows):
        assert inv is None
    else:
        assert mat_mul([[QQ(v) for v in row] for row in rows], inv,
                       QQ) == _identity(len(rows))


@settings(max_examples=100)
@given(st.sampled_from((5, 7)).flatmap(
    lambda p: st.tuples(st.just(p), matrices(_residues(p), square=True))))
def test_invert_matrix_over_gf(case):
    p, rows = case
    field = GF(p)
    inv = invert_matrix(rows, field)
    if _rowspace_rank(_columns(rows), p) < len(rows):
        assert inv is None
    else:
        assert mat_mul([[field(v) for v in row] for row in rows], inv,
                       field) == _identity(len(rows))
