import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadralg.groebner import (Ideal, groebner, intersect, intersect_all,
                               projective_empty, radical_member,
                               variety_equal)
from quadralg.polynomials import (DEGREVLEX, EliminateLast, PolyRing,
                                  order_from_name)
from quadralg.scalars import QQ, GF


@pytest.fixture
def rxy():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def rxyz():
    return PolyRing(QQ, ["x", "y", "z"])


def sec5_right_generators(ring):
    x, y, z = ring.gens()
    return [10 * x * y * z - 2 * (y ** 3 + x ** 3 + z ** 3),
            y * (x * y - 2 * z * z),
            y * (z * x - 2 * y * y),
            y * (x * x - 4 * y * z)]


def test_already_reduced_bases(rxy):
    x, y = rxy.gens()
    gb = groebner([x * x, x * y])
    assert {frozenset(p.terms.items()) for p in gb.polys} == \
        {frozenset((x * x).terms.items()), frozenset((x * y).terms.items())}
    gb2 = groebner([x - y, y * y])
    assert len(gb2) == 2


def _s_polynomial(f, g):
    lmf, lmg = f.lead_monomial(), g.lead_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    ring = f.ring
    return (ring.monomial([a - b for a, b in zip(lcm, lmf)]) * f.monic()
            - ring.monomial([a - b for a, b in zip(lcm, lmg)]) * g.monic())


def test_buchberger_closure_property(rxyz):
    """Every S-polynomial of basis pairs reduces to zero, and the original
    generators reduce to zero (full Buchberger criterion, checked directly)."""
    gens = sec5_right_generators(rxyz)
    gb = groebner(gens)
    assert not gb.contains_one()
    for g in gens:
        assert gb.reduces_to_zero(g)
    for f, g in combinations(gb.polys, 2):
        assert gb.reduces_to_zero(_s_polynomial(f, g))


def test_groebner_idempotent(rxyz):
    gens = sec5_right_generators(rxyz)
    gb = groebner(gens)
    again = groebner(list(gb.polys))
    assert [p.terms for p in gb.polys] == [p.terms for p in again.polys]


def test_groebner_over_prime_field():
    ring = PolyRing(GF(13), ["x", "y"])
    x, y = ring.gens()
    gb = groebner([x * x - y, y * y - x])
    assert not gb.contains_one()
    assert gb.reduces_to_zero(x ** 4 - x)


def test_radical_membership_basics(rxy):
    x, y = rxy.gens()
    sq = Ideal(rxy, [x * x])
    assert radical_member(x, sq)
    assert not radical_member(y, sq)
    assert radical_member(rxy.zero(), sq)


def test_radical_member_implied_by_membership(rxyz):
    gens = sec5_right_generators(rxyz)
    ideal = Ideal(rxyz, gens)
    gb = ideal.groebner()
    f = gens[0] * rxyz.var(0) + gens[2]
    assert gb.reduces_to_zero(f)
    assert radical_member(f, ideal)


def test_variety_equal_basics(rxy):
    x, y = rxy.gens()
    assert variety_equal(Ideal(rxy, [x]), Ideal(rxy, [x * x]))
    assert not variety_equal(Ideal(rxy, [x]), Ideal(rxy, [y]))
    zero = Ideal(rxy, [])
    assert variety_equal(zero, zero)
    assert not variety_equal(zero, Ideal(rxy, [x]))


def test_projective_empty():
    ring = PolyRing(QQ, ["x1", "x2"])
    a, b = ring.gens()
    assert projective_empty(Ideal(ring, [a, b]))
    assert not projective_empty(Ideal(ring, []))
    # x1^2 + x2^2 has the zero (1 : i) over the algebraic closure
    conic = Ideal(ring, [a * a + b * b])
    assert not projective_empty(conic)
    # evaluation oracle over Gaussian rationals: (1, i) really is a zero
    val = 1 ** 2 + 1j ** 2
    assert val == 0
    with pytest.raises(ValueError):
        projective_empty(Ideal(ring, [a + ring.one()]))


def test_intersection_contains_products(rxy):
    x, y = rxy.gens()
    I = Ideal(rxy, [x])
    J = Ideal(rxy, [y])
    K = intersect(I, J)
    gbK = K.groebner()
    assert gbK.reduces_to_zero(x * y)
    # x alone is not in the intersection
    assert not gbK.reduces_to_zero(x)
    for g in K.gens:
        assert I.groebner().reduces_to_zero(g)
        assert J.groebner().reduces_to_zero(g)


def test_intersection_of_point_ideals():
    ring = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = ring.gens()
    p1 = Ideal(ring, [y, z])          # point (1:0:0)
    p2 = Ideal(ring, [x, z])          # point (0:1:0)
    both = intersect_all([p1, p2])
    for g in both.gens:
        assert g.evaluate([QQ(1), QQ(0), QQ(0)]) == 0
        assert g.evaluate([QQ(0), QQ(1), QQ(0)]) == 0
    # the line through the points is cut out: z vanishes on both
    assert both.groebner().reduces_to_zero(z)
    assert not both.groebner().reduces_to_zero(x)


def test_cached_basis_reused(rxy):
    x, y = rxy.gens()
    ideal = Ideal(rxy, [x * x - y])
    gb1 = ideal.groebner()
    gb2 = ideal.groebner()
    assert gb1 is gb2


def test_zero_ideal_basis_is_empty(rxy):
    assert len(Ideal(rxy, []).groebner()) == 0


def _sympy_reduced_basis(sympy, gens, order_name):
    """sympy's reduced basis of the gens, read back into their ring and
    normalized as ours are: primitive over QQ, monic over GF(p), where
    sympy's symmetric residues are taken mod p by the ring's field."""
    ring = gens[0].ring
    p = ring.field.characteristic
    sym_vars = sympy.symbols(ring.names)

    def to_sympy(f):
        expr = sympy.Integer(0)
        for e, c in f.terms.items():
            term = sympy.Rational(str(c))
            for v, k in zip(sym_vars, e):
                term *= v ** k
            expr += term
        return expr

    options = {"modulus": p} if p else {}
    sgb = sympy.groebner([to_sympy(g) for g in gens], *sym_vars,
                         order=order_name, **options)
    return {frozenset(ring.from_terms(
        (tuple(mono), int(coeff) if p else str(coeff))
        for mono, coeff in sympy.Poly(e, *sym_vars, **options).terms()
    ).primitive().terms.items()) for e in sgb.exprs}


def _our_reduced_basis(gens):
    return {frozenset(f.primitive().terms.items()) for f in groebner(gens)}


def test_groebner_matches_independent_oracle():
    """Reduced bases agree with sympy's, up to scalar normalization, over
    QQ and over GF(p)."""
    sympy = pytest.importorskip("sympy")
    for field in (QQ, GF(7), GF(32003)):
        ring = PolyRing(field, ["x", "y", "z"])
        x, y, z = ring.gens()
        systems = [
            sec5_right_generators(ring),
            [x * x + y * y - z * z, x * y - z * z],
            [x * x - y, y * y - z, x * z - 1],
        ]
        for gens in systems:
            assert _our_reduced_basis(gens) == \
                _sympy_reduced_basis(sympy, gens, "grevlex")


_SYMPY_ORDERS = {"degrevlex": "grevlex", "deglex": "grlex", "lex": "lex"}
_QUADRICS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
             (0, 0, 2)]


@settings(max_examples=30)
@given(field=st.sampled_from([QQ, GF(7), GF(32003)]),
       order=st.sampled_from(sorted(_SYMPY_ORDERS)),
       gens=st.lists(st.dictionaries(st.sampled_from(_QUADRICS),
                                     st.integers(-6, 6), min_size=1,
                                     max_size=4),
                     min_size=1, max_size=3))
def test_groebner_of_random_quadrics_matches_oracle(field, order, gens):
    """Random homogeneous quadric ideals in three variables, in each order
    and over QQ and GF(p), against sympy's reduced bases."""
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(field, ["x", "y", "z"], order_from_name(order))
    polys = [f for f in (ring.from_terms(g.items()) for g in gens) if f]
    assume(polys)
    assert _our_reduced_basis(polys) == \
        _sympy_reduced_basis(sympy, polys, _SYMPY_ORDERS[order])


_UP_TO_CUBICS = [e for e in product(range(4), repeat=4) if sum(e) <= 3]


@settings(max_examples=30)
@given(field=st.sampled_from([QQ, GF(7), GF(32003)]),
       order=st.sampled_from(sorted(_SYMPY_ORDERS)),
       gens=st.lists(st.dictionaries(st.sampled_from(_UP_TO_CUBICS),
                                     st.integers(-5, 5), min_size=2,
                                     max_size=4),
                     min_size=2, max_size=5))
def test_groebner_of_random_inhomogeneous_ideals_matches_oracle(field, order,
                                                                gens):
    """Random inhomogeneous ideals, up to five generators of degree at most
    3 in four variables, where the pair criteria prune many pairs: in each
    order and over QQ and GF(p), against sympy's reduced bases."""
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(field, ["x", "y", "z", "w"], order_from_name(order))
    polys = [f for f in (ring.from_terms(g.items()) for g in gens) if f]
    assume(polys)
    assert _our_reduced_basis(polys) == \
        _sympy_reduced_basis(sympy, polys, _SYMPY_ORDERS[order])


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_skew_quotient_point_variety_basis_matches_oracle(field):
    """I_E of the quotient of the 4-variable +-1-skew algebra by its sum of
    squares: 29 quadric minors whose reduced basis has 23 entries, equal to
    sympy's."""
    sympy = pytest.importorskip("sympy")
    from conftest import sum_of_squares
    from quadralg.algebra import QuadraticPresentation
    from quadralg.geometry import point_variety
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    A = QuadraticPresentation.skew(field, ["x1", "x2", "x3", "x4"], q)
    gens = list(point_variety(A.quotient(sum_of_squares(A)),
                              "right").ideal.gens)
    assert len(gens) == 29
    ours = _our_reduced_basis(gens)
    assert len(ours) == 23
    assert ours == _sympy_reduced_basis(sympy, gens, "grevlex")


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)])
def test_eliminate_last_basis_has_its_defining_properties(field):
    """EliminateLast has no sympy order: check that every S-polynomial
    reduces to zero, that the basis is reduced and that each generator
    reduces to zero, on seeded random ideals with a last variable to
    eliminate."""
    rng = random.Random(23)
    ring = PolyRing(field, ["x", "y", "t"], EliminateLast(DEGREVLEX))
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)
             if a + b + c <= 2]
    for _ in range(12):
        gens = [f for f in (
            ring.from_terms((m, rng.randint(-4, 4))
                            for m in rng.sample(monos, rng.randint(2, 4)))
            for _ in range(rng.randint(2, 3))) if f]
        if not gens:
            continue
        gb = groebner(gens)
        polys = gb.polys
        for f in gens:
            assert gb.reduces_to_zero(f)
        for f, g in combinations(polys, 2):
            assert gb.reduces_to_zero(_s_polynomial(f, g))
        leads = [f.lead_monomial() for f in polys]
        for f in polys:
            assert f.lead_coeff() == field.one
            for e in f.terms:
                assert not any(
                    lm != f.lead_monomial()
                    and all(a <= b for a, b in zip(lm, e))
                    for lm in leads)


def test_configurable_order():
    from quadralg.polynomials import LEX, DEGREVLEX
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    gens = [x * x - y, x * y - 1]
    lex_gb = groebner(gens, order=LEX)
    drl_gb = groebner(gens, order=DEGREVLEX)
    # lex eliminates x: some basis element only involves y
    assert any(all(e[0] == 0 for e in p.terms) for p in lex_gb.polys)
    # both bases generate the same ideal (cross-reduction)
    for p in lex_gb.polys:
        assert drl_gb.reduces_to_zero(p)
    for p in drl_gb.polys:
        assert lex_gb.reduces_to_zero(p)
    # idempotence per order
    assert [q.terms for q in groebner(list(lex_gb.polys), order=LEX).polys] \
        == [q.terms for q in lex_gb.polys]


def test_package_attribute_is_the_submodule():
    import types
    import quadralg
    import quadralg.groebner as G
    assert isinstance(quadralg.groebner, types.ModuleType)
    assert G is quadralg.groebner and callable(G.groebner)


def _rabinowitsch_empty(ideal):
    """Reference: every variable lies in the radical (one Rabinowitsch
    basis per variable)."""
    ring = ideal.ring
    return all(radical_member(ring.var(i), ideal) for i in range(ring.nvars))


def _small_ideals():
    out = []
    for field in (QQ, GF(7)):
        ring = PolyRing(field, ["x", "y", "z", "w"])
        x, y, z, w = ring.gens()
        cases = [
            ("point", [x, y, z], False),
            ("line", [x - y, z + w * 2], False),
            ("conic", [x * z - y * y, w], False),
            # x = +-i y: points only over the algebraic closure
            ("sum-of-squares", [x * x + y * y, z, w], False),
            ("zero", [], False),
            ("irrelevant", [x, y, z, w], True),
            ("powers", [x * x, y * y + x * z, z ** 3, w * w - x * y], True),
            ("unit", [ring.one()], True),
        ]
        out += [pytest.param(Ideal(ring, gens), empty, id=f"{name}-{field}")
                for name, gens, empty in cases]
    return out


@pytest.mark.parametrize("ideal,empty", _small_ideals())
def test_projective_empty_matches_rabinowitsch(ideal, empty):
    assert projective_empty(ideal) == _rabinowitsch_empty(ideal) == empty


def test_projective_empty_matches_rabinowitsch_on_acceptance_ideals(
        quantum_plane, sec5_quotient, case2_algebra, case3_algebra):
    from quadralg.geometry import point_variety
    verdicts = []
    for pres in (quantum_plane, sec5_quotient, case2_algebra, case3_algebra):
        for side in ("right", "left"):
            pv = point_variety(pres, side)
            for ideal in (pv.ideal, pv.ideal + pv.matrix.minor_ideal(
                    pres.n - 1)):
                got = projective_empty(ideal)
                assert got == _rabinowitsch_empty(ideal)
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def _count_bases(monkeypatch):
    from quadralg import groebner as G
    calls = []
    real = G._groebner_of

    def spy(ring, polys, order):
        calls.append(len(polys))
        return real(ring, polys, order)

    monkeypatch.setattr(G, "_groebner_of", spy)
    return calls


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_spanning_degree_is_empty_without_a_basis(monkeypatch, field):
    ring = PolyRing(field, ["x", "y", "z"])
    x, y, z = ring.gens()
    calls = _count_bases(monkeypatch)
    # the six quadrics span every form of degree 2; the cubic is ignored
    gens = [x * x, x * y + y * z, y * y, x * z, z * z - x * y, y * z,
            x * y * z]
    assert projective_empty(Ideal(ring, gens))
    assert calls == []


def test_a_rank_lost_mod_p_falls_back_to_buchberger(monkeypatch, rxy):
    from quadralg.exactlinalg import MODULAR_PRIMES
    x, y = rxy.gens()
    p = MODULAR_PRIMES[0]
    calls = _count_bases(monkeypatch)
    # they span the quadrics over QQ, but xy + p*y^2 is xy mod p
    assert projective_empty(Ideal(rxy, [x * x, x * y, x * y + p * y * y]))
    assert calls == [3]


def test_a_denominator_divisible_by_p_moves_to_the_next_prime(monkeypatch,
                                                              rxy):
    from quadralg import groebner as G
    from quadralg.exactlinalg import MODULAR_PRIMES
    x, y = rxy.gens()
    primes, real = [], G.modular_rank

    def spy(columns, nrows):
        primes.append(columns.prime)
        return real(columns, nrows)

    monkeypatch.setattr(G, "modular_rank", spy)
    calls = _count_bases(monkeypatch)
    gens = [(x * x).scale(Fraction(1, MODULAR_PRIMES[0])), x * y, y * y]
    assert projective_empty(Ideal(rxy, gens))
    assert primes == [MODULAR_PRIMES[1]]
    assert calls == []


def test_a_nonspanning_nonempty_ideal_stays_nonempty(monkeypatch, rxyz):
    x, y, z = rxyz.gens()
    calls = _count_bases(monkeypatch)
    # six quadrics, but all vanish at (0 : 0 : 1)
    gens = [x * x, x * y, y * y, x * z, y * z, x * x + y * z]
    assert not projective_empty(Ideal(rxyz, gens))
    assert calls == [6]
