from fractions import Fraction

import pytest

from quadralg.polynomials import (DEGREVLEX, DEGLEX, LEX, EliminateLast,
                                  PolyRing, order_from_name, render_poly)
from quadralg.scalars import QQ, GF


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y", "z"])


def test_degrevlex_classic_order(ring):
    # with x > y > z: x^2 > xy > y^2 > xz > yz > z^2
    key = DEGREVLEX.key
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
             (0, 0, 2)]
    keys = [key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_deglex_vs_degrevlex_differ():
    # xz vs y^2: deglex says xz > y^2, degrevlex says y^2 > xz
    assert DEGLEX.key((1, 0, 1)) > DEGLEX.key((0, 2, 0))
    assert DEGREVLEX.key((1, 0, 1)) < DEGREVLEX.key((0, 2, 0))


def test_lex_order():
    assert LEX.key((1, 0, 0)) > LEX.key((0, 5, 5))


def test_eliminate_last_blocks():
    order = EliminateLast(DEGREVLEX)
    # any power of the last variable beats everything without it
    assert order.key((0, 0, 1)) > order.key((9, 9, 0))


def test_arithmetic_and_evaluate(ring):
    x, y, z = ring.gens()
    f = (x + y) * (x - y) + z * z
    assert f == x * x - y * y + z * z
    assert f.evaluate([QQ(3), QQ(2), QQ(1)]) == Fraction(6)
    assert (f - f).is_zero()
    assert f.total_degree() == 2
    assert f.is_homogeneous()
    assert not (f + ring.one()).is_homogeneous()


def test_lead_and_monic(ring):
    x, y, _ = ring.gens()
    f = 2 * x * y + 4 * y * y
    assert f.lead_monomial() == (1, 1, 0)
    assert f.monic().lead_coeff() == 1


def test_primitive_normalization(ring):
    x, y, _ = ring.gens()
    f = x * y * Fraction(-2, 3) + y * y * Fraction(4, 3)
    g = f.primitive()
    # content-free, integer coefficients, positive leading coefficient
    assert g.lead_coeff() == 1
    assert g == x * y - 2 * y * y


def test_primitive_over_prime_field():
    ring = PolyRing(GF(7), ["x", "y"])
    x, y = ring.gens()
    f = x * 3 + y * 5
    assert f.primitive().lead_coeff() == GF(7)(1)


def test_field_scalars_coerce_through_the_ring():
    ring = PolyRing(GF(7), ["x", "y"])
    x, _ = ring.gens()
    c = GF(7)(3)
    assert x * c == c * x == x * 3 == ring.monomial((1, 0), 3)
    assert x + c == c + x == x + 3
    assert x - c == x + 4
    assert c - x == 3 - x == ring.constant(3) - x


@pytest.mark.parametrize("field, scalar", [
    (QQ, 0.5), (QQ, GF(7)(3)), (GF(7), 0.5), (GF(7), GF(5)(2))])
def test_foreign_scalars_are_refused(field, scalar):
    x = PolyRing(field, ["x", "y"]).var(0)
    for op in (lambda: x + scalar, lambda: scalar + x, lambda: x - scalar,
               lambda: scalar - x, lambda: x * scalar, lambda: scalar * x):
        with pytest.raises(TypeError):
            op()


def test_render_canonical(ring):
    x, y, z = ring.gens()
    f = z * z * Fraction(-1, 2) + x * x - y
    assert render_poly(f) == "x^2 - 1/2*z^2 - y"
    assert render_poly(ring.zero()) == "0"
    assert str(ring.one() * 3) == "3"


def test_ring_extension_and_lift(ring):
    big = ring.extend(["t"])
    x = ring.var("x")
    fx = x.lift(big)
    assert fx.ring is not ring
    assert fx.drop_last_vars(ring) == x
    t = big.var("t")
    with pytest.raises(ValueError):
        (t * fx).drop_last_vars(ring)


def test_fresh_name(ring):
    assert ring.fresh_name("x") == "x_"
    assert ring.fresh_name("t") == "t"


def test_order_from_name():
    assert order_from_name("degrevlex") is DEGREVLEX
    with pytest.raises(ValueError):
        order_from_name("mystery")
