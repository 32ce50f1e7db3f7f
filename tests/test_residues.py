"""Rank certificates over QQ built in F_p from residue tables.

The residue tables and the residue columns must equal the residues of their
rational counterparts; a prime that clashes with a denominator only moves a
certificate to the next prime, and when every prime clashes the rational
ranks decide.  Regularity of a normal element needs no rank at all."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from quadralg import algebra, exactlinalg, resolutions
from quadralg.algebra import (AlgebraElement, QuadraticPresentation,
                              is_regular_up_to)
from quadralg.exactlinalg import (MODULAR_PRIMES, PrimeClash, modular_rank,
                                  rank_of_columns, residue)
from quadralg.parsing import parse_presentation_text
from quadralg.resolutions import FreeModuleMap, linear_resolution
from quadralg.scalars import GF, QQ
from quadralg.shamash import shamash
from conftest import reference_degree_columns, sum_of_squares

P1, P2 = MODULAR_PRIMES[:2]
NAMES = ["x", "y", "z"]
CAP = 6
_primes = st.sampled_from([P1, P2])
_q = st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(-3, 2)])
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
    return QuadraticPresentation.skew(QQ, NAMES[:n], q, degree_cap=CAP)


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
    return QuadraticPresentation.create(QQ, NAMES[:n], rels, degree_cap=CAP)


ALGEBRAS = st.one_of(skew_algebras(), dense_algebras())


def _reduced(vec, p):
    return {k: r for k, v in vec.items() if (r := residue(v, p))}


def _as_dict(flat):
    return dict(zip(flat[::2], flat[1::2]))


@given(ALGEBRAS, _primes)
@settings(max_examples=30, deadline=None)
def test_residue_tables_reduce_the_rational_tables(pres, p):
    tables = pres.tables(p)
    for d in range(1, 5):
        step = pres.component(d).step
        left = pres.tables().left_table(d)
        for a in range(pres.n):
            for i in range(pres.dim(d - 1)):
                assert (_as_dict(tables.step_table(d)[a][i])
                        == _reduced(step[(i, a)], p))
                assert (_as_dict(tables.left_table(d)[a][i])
                        == _reduced(_as_dict(left[a][i]), p))


@given(ALGEBRAS, _primes)
@settings(max_examples=20, deadline=None)
def test_residue_columns_reduce_degree_columns(pres, p):
    res = linear_resolution(pres, "right", 3, check="report")
    for fmap in res.maps:
        for e in range(CAP - 1):
            columns, nrows, _ = fmap.degree_columns(e)
            got, got_rows = fmap.residue_columns(e, p)
            assert got.prime == p and got_rows == nrows
            assert list(got) == [_reduced(col, p) for col in columns]
            reference, _, _ = reference_degree_columns(fmap, e)
            assert list(got) == [_reduced(col, p) for col in reference]


def _spy(monkeypatch, module):
    """Record the prime of every certificate ``module`` makes."""
    primes = []
    real = module.modular_rank

    def spy(columns, nrows):
        primes.append(columns.prime)
        return real(columns, nrows)

    monkeypatch.setattr(module, "modular_rank", spy)
    return primes


def _no_rational_ranks(monkeypatch, module):
    def fail(columns, nrows, field=QQ):
        raise AssertionError("a certificate did not close")

    monkeypatch.setattr(module, "rank_of_columns", fail)


def test_regularity_of_a_normal_element_computes_no_rank(monkeypatch):
    """f has no residue mod P1, and it need not: the dimensions of A/(f)
    decide, with no rank mod p or over QQ."""
    pres = QuadraticPresentation.commutative(QQ, NAMES)
    x, y, z = (pres.generator(i) for i in range(3))
    f = x * x + (y * y).scale(Fraction(1, P1)) + z * z
    ranks = []

    def spy(name, real):
        def record(*args, **kwargs):
            ranks.append(name)
            return real(*args, **kwargs)
        return record

    for module in (algebra, exactlinalg, resolutions):
        for name in ("modular_rank", "rank_of_columns"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    spy(name, getattr(module, name)))
    assert is_regular_up_to(f, 3)
    assert ranks == []


def test_a_clashing_relation_moves_certificates_to_the_next_prime(
        monkeypatch):
    """q = P1 puts 1/P1 into the step tables from degree 2 on."""
    q = [[1, P1, -1], [Fraction(1, P1), 1, 2], [-1, Fraction(1, 2), 1]]
    pres = QuadraticPresentation.skew(QQ, NAMES, q, degree_cap=CAP)
    with pytest.raises(PrimeClash):
        pres.tables(P1).left_table(2)
    assert 2 not in pres.tables(P1).left
    primes = _spy(monkeypatch, resolutions)
    _no_rational_ranks(monkeypatch, resolutions)
    res = linear_resolution(pres, "right", 4)
    assert res.ranks() == [1, 3, 3, 1, 0]
    assert res.meta["verification"].is_exact()
    assert P2 in primes and set(primes) <= {P1, P2}
    monkeypatch.undo()
    for fmap in res.maps:
        for e in range(CAP):
            columns, nrows, _ = fmap.degree_columns(e)
            rank = rank_of_columns(columns, nrows, QQ)
            try:
                certified = modular_rank(*fmap.residue_columns(e, P1))
            except PrimeClash:
                certified = modular_rank(*fmap.residue_columns(e, P2))
            assert certified == rank


def _copy_map(fmap, pres):
    return FreeModuleMap(pres, fmap.target_shifts, fmap.source_shifts, [
        [AlgebraElement(pres, e.degree, e.coords) for e in row]
        for row in fmap.entries])


def test_residues_do_not_depend_on_the_order_of_the_primes():
    """The same maps over two fresh presentations (distinct caps), reduced
    at P1 then P2 over one and at P2 then P1 over the other."""
    q = [[1, 2, Fraction(-3, 2)], [Fraction(1, 2), 1, Fraction(1, 3)],
         [Fraction(-2, 3), 3, 1]]
    source, first, second = (
        QuadraticPresentation.skew(QQ, NAMES, q, degree_cap=c)
        for c in (CAP + 2, CAP, CAP + 1))
    maps = linear_resolution(source, "right", 3).maps
    results = []
    for pres, order in ((first, (P1, P2)), (second, (P2, P1))):
        assert not pres._components and not pres._tables
        out = {}
        for p in order:
            for k, fmap in enumerate(maps):
                fmap = _copy_map(fmap, pres)
                for e in range(CAP):
                    cols, nrows = fmap.residue_columns(e, p)
                    out[(p, k, e)] = (list(cols), nrows,
                                      modular_rank(cols, nrows))
        results.append(out)
    assert results[0] == results[1]


def test_a_prime_field_builds_no_residue_tables():
    field = GF(32003)
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    pres = QuadraticPresentation.skew(field, ["a", "b", "c", "d"], q,
                                      degree_cap=6)
    f = sum_of_squares(pres)
    assert is_regular_up_to(f, 4)
    P = linear_resolution(pres, "right", 4)
    T, _ = shamash(pres, P, f, length=4, internal_cap=6)
    assert T.meta["verification"].is_exact()
    assert set(pres._tables) == {None}
    assert set(T.presentation._tables) == {None}


N = reduce(lambda a, b: a * b, MODULAR_PRIMES)
ALL_CLASH = f"field QQ\nvars x, y\nskew\n1 1/{N}\n{N} 1\n"


def test_every_prime_clashing_leaves_the_rational_ranks_to_decide():
    """The right d_2 is (-y/N, x)^t: every working prime divides the
    denominator."""
    pres = parse_presentation_text(ALL_CLASH)
    for p in MODULAR_PRIMES:
        with pytest.raises(PrimeClash):
            linear_resolution(pres, "right", 3).maps[1].residue_columns(2, p)
    for side in ("right", "left"):
        res = linear_resolution(pres, side, 3)
        assert res.ranks() == [1, 2, 1, 0]
        assert res.meta["verification"].is_exact()
