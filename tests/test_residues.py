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
from quadralg.algebra import (AlgebraElement, GradedAutomorphism,
                              QuadraticPresentation, convert_element,
                              is_regular_up_to, span_normal)
from quadralg.exactlinalg import (MODULAR_PRIMES, PrimeClash, ResidueColumns,
                                  modular_rank, rank_of_columns, residue)
from quadralg.parsing import parse_presentation_text
from quadralg.resolutions import FreeModuleMap, linear_resolution
from quadralg.scalars import GF, QQ, FpElement
from quadralg.shamash import lift_against, shamash
from conftest import reference_degree_columns, sum_of_squares

P1, P2 = MODULAR_PRIMES[:2]
NAMES = ["x", "y", "z"]
CAP = 6
_primes = st.sampled_from([P1, P2])
_q = st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(-3, 2)])
_c = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-1),
                                          Fraction(2), Fraction(-1, 2)])


@st.composite
def skew_algebras(draw, field=QQ):
    n = draw(st.integers(2, 3))
    q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = draw(_q)
            q[j][i] = 1 / q[i][j]
    return QuadraticPresentation.skew(field, NAMES[:n], q, degree_cap=CAP)


@st.composite
def dense_algebras(draw, field=QQ):
    n = draw(st.integers(2, 3))
    words = [(u, v) for u in range(n) for v in range(n)]
    rels = []
    for _ in range(draw(st.integers(1, n * n - 2))):
        rel = {w: c for w in words if (c := draw(_c))}
        if rel:
            rels.append(rel)
    if not rels:
        rels = [{(0, 1): Fraction(1), (1, 0): Fraction(-1)}]
    return QuadraticPresentation.create(field, NAMES[:n], rels,
                                        degree_cap=CAP)


ALGEBRAS = st.one_of(skew_algebras(), dense_algebras())
# over GF(7) and GF(11), whose residue tables are taken at the characteristic
GF_ALGEBRAS = st.sampled_from([GF(7), GF(11)]).flatmap(
    lambda field: st.one_of(skew_algebras(field), dense_algebras(field)))


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
                        == _reduced(_as_dict(step[a][i]), p))
                assert (_as_dict(tables.left_table(d)[a][i])
                        == _reduced(_as_dict(left[a][i]), p))


@given(GF_ALGEBRAS)
@settings(max_examples=30, deadline=None)
def test_residue_tables_at_the_characteristic_are_the_field_tables(pres):
    """Over GF(p) the field tables are the tables at the characteristic:
    one ``ResidueTables``, whose step tables are the stored ones, and every
    step and left table holds ints in [1, p)."""
    p = pres.field.p
    tables = pres.tables()
    assert tables is pres.tables(p) and tables.p == p
    assert set(pres._tables) == {p}
    for d in range(1, 5):
        assert tables.step_table(d) is pres.component(d).step
        for get in ("step_table", "left_table"):
            assert all(type(v) is int and 0 < v < p
                       for images in getattr(tables, get)(d)
                       for flat in images for v in flat[1::2])


@given(ALGEBRAS, _primes)
@settings(max_examples=20, deadline=None)
def test_residue_columns_reduce_degree_columns(pres, p):
    res = linear_resolution(pres, "right", 3, check="report")
    for fmap in res.maps:
        for e in range(CAP - 1):
            columns, nrows = fmap.degree_columns(e)
            got, got_rows = fmap.residue_columns(e, p)
            assert got.prime == p and got_rows == nrows
            assert list(got) == [_reduced(col, p) for col in columns]
            reference, _ = reference_degree_columns(fmap, e)
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
    """f has no residue mod P1, and it need not: normality is three exact
    ranks over QQ in A_3 (the span identity), and then the dimensions of
    A/(f) decide regularity, with no rank mod p or over QQ."""
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
    assert span_normal(f)
    assert ranks == ["rank_of_columns"] * 3
    ranks.clear()
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
            columns, nrows = fmap.degree_columns(e)
            rank = rank_of_columns(columns, nrows, QQ)
            try:
                certified = modular_rank(*fmap.residue_columns(e, P1))
            except PrimeClash:
                certified = modular_rank(*fmap.residue_columns(e, P2))
            assert certified == rank


def test_the_chain_certifies_a_quotient_resolution_on_fewer_columns(
        monkeypatch):
    """The n = 4 +-1-skew algebra A and its quotient T by the sum of
    squares, L = 6: the chain closes at every internal degree of P over A
    (cap 7) and of T (cap 8), so no rational rank is computed, and the
    columns it eliminates mod p (2,936) are at most 60 % of the columns of
    their differentials in those degrees (5,227)."""
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    pres = QuadraticPresentation.skew(QQ, ["w1", "w2", "w3", "w4"], q)
    assert not pres._cache  # P is built, and verified, below
    built = []
    real = resolutions.modular_rank

    def spy(columns, nrows):
        built.append(len(columns))
        return real(columns, nrows)

    monkeypatch.setattr(resolutions, "modular_rank", spy)
    _no_rational_ranks(monkeypatch, resolutions)
    P = linear_resolution(pres, "right", 6)
    T, _ = shamash(pres, P, sum_of_squares(pres), length=6, internal_cap=8)
    assert P.meta["verification"].is_exact()
    assert T.meta["verification"].is_exact()
    total = sum(cplx.presentation.dim(e - s)
                for cplx, cap in ((P, 7), (T, 8)) for d in cplx.maps
                for s in d.source_shifts for e in range(s, cap + 1))
    assert total == 5227
    assert built and sum(built) <= 0.6 * total


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


def test_a_prime_field_builds_tables_only_at_its_characteristic():
    """Over GF(32003) every table is at the characteristic: the algebra and
    its quotient hold one domain each, ints mod 32003, for the products,
    the scalar columns and the chain, and none at a working prime."""
    field = GF(32003)
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    pres = QuadraticPresentation.skew(field, ["a", "b", "c", "d"], q,
                                      degree_cap=6)
    f = sum_of_squares(pres)
    assert is_regular_up_to(f, 4)
    P = linear_resolution(pres, "right", 4)
    T, _ = shamash(pres, P, f, length=4, internal_cap=6)
    assert T.meta["verification"].is_exact()
    for alg in (pres, T.presentation):
        assert set(alg._tables) == {32003}
        assert alg.tables() is alg.tables(32003)


def _units_mod(p):
    """Nonzero rationals whose numerator and denominator are prime to p."""
    whole = st.integers(-40, 40).filter(lambda a: a % p)
    return st.builds(Fraction, whole, whole.map(abs))


@st.composite
def skew_matrices_mod(draw):
    p = draw(st.sampled_from([7, 11, 32003]))
    n = draw(st.integers(2, 4))
    q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = draw(_units_mod(p))
            q[j][i] = 1 / q[i][j]
    return p, q


@given(skew_matrices_mod())
@settings(max_examples=40, deadline=None)
def test_prime_field_tables_are_the_residues_of_the_rational_tables(case):
    """A skew algebra over GF(p) builds its tables in residues; the same
    skew matrix over QQ builds them in rationals, reduced mod p afterwards
    by ``tables(p)``.  No pivot moves for skew relations, so the normal
    words and every step and left table agree."""
    p, q = case
    names = NAMES + ["t"]
    rational, modular = (
        QuadraticPresentation.skew(field, names[:len(q)], q, degree_cap=5)
        for field in (QQ, GF(p)))
    reference, tables = rational.tables(p), modular.tables()
    for d in range(1, 6):
        assert modular.component(d).words == rational.component(d).words
        assert tables.step_table(d) == reference.step_table(d)
        assert tables.left_table(d) == reference.left_table(d)


def test_a_foreign_prime_on_a_prime_field_is_refused():
    """GF(7) holds its tables mod 7 only: another prime is a caller's
    error, not a residue of an element of F_7."""
    plane = QuadraticPresentation.skew(GF(7), ["x", "y"], [[1, 3], [5, 1]])
    with pytest.raises(ValueError, match="GF\\(7\\)"):
        plane.tables(11)
    assert set(plane._tables) <= {7}
    assert plane.tables(7).left_table(3) == plane.tables().left_table(3)


def _coords_are_field_scalars(element, p):
    return all(type(c) is FpElement and c.p == p
               for c in element.coords.values())


def _maps_have_field_scalars(maps, p):
    return all(_coords_are_field_scalars(e, p)
               for fmap in maps for row in fmap.entries for e in row)


def test_no_table_scalar_leaks_into_coordinates():
    """Over GF(7) the tables and the scalar columns hold ints in [1, 7),
    and every element built from them (resolutions, the tower and its
    twists, quotient maps, composites, lifts, automorphisms and linear
    quotients) holds elements of F_7 only, so equal elements hash alike."""
    field = GF(7)
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    pres = QuadraticPresentation.skew(field, ["a", "b", "c", "d"], q,
                                      degree_cap=6)
    f = sum_of_squares(pres)
    P = linear_resolution(pres, "right", 4)
    T, tower = shamash(pres, P, f, length=4, internal_cap=6)
    assert T.meta["verification"].is_exact()
    d2, c = P.maps[1], tower.c(1, 1)
    lift = lift_against(d2, d2.compose(c))
    assert d2.compose(lift).sub(d2.compose(c)).is_zero()
    sigma = GradedAutomorphism(pres, [[2, 0, 0, 0], [0, 3, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 5]])
    x = [pres.generator(i) for i in range(4)]
    g = x[0] * x[1] * x[2] + x[3] * x[3].scale(4) * x[0]
    line, linmap = pres.quotient_by_linear(x[0] + x[1].scale(2))
    assert _maps_have_field_scalars(
        P.maps + T.maps + list(tower.cmaps.values())
        + [P.maps[0].compose(P.maps[1]), d2.compose(c), lift], 7)
    images = [sigma(g), convert_element(g, line, linmap), f * g, g * f,
              pres.from_word_coeffs(3, {(0, 1, 2): 3, (2, 1, 0): 1}),
              convert_element(g, T.presentation)]
    assert all(_coords_are_field_scalars(h, 7) for h in images)
    assert hash(sigma(g)) == hash(AlgebraElement(
        pres, 3, {i: field(c.val) for i, c in sigma(g).coords.items()}))
    for alg in (pres, T.presentation):
        tables = alg.tables()
        assert tables is alg.tables(7) and set(alg._tables) == {7}
        assert all(type(v) is int and 0 < v < 7
                   for comp in alg._components.values()
                   for images in comp.step for flat in images
                   for v in flat[1::2])
    for fmap in T.maps:
        for e in range(7):
            columns, _ = fmap.degree_columns(e)
            assert isinstance(columns, ResidueColumns) and columns.prime == 7
            assert all(type(v) is int and 0 < v < 7
                       for col in columns for v in col.values())


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
