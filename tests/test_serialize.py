import json

from fractions import Fraction

import pytest

from quadralg.algebra import QuadraticPresentation
from quadralg.parsing import parse_presentation_text, presentation_to_text
from quadralg.polynomials import PolyRing, render_poly
from quadralg.resolutions import linear_resolution
from quadralg.serialize import (complex_from_dict, complex_to_dict,
                                presentation_from_dict,
                                presentation_to_dict, render_element,
                                render_tensor_relation)
from quadralg.shamash import shamash
from quadralg.scalars import GF, QQ
from conftest import sum_of_squares


def test_render_element_collapses_powers(quantum_plane):
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    el = (y * x * x).scale(3)       # y*x*x is a normal word
    assert render_element(el) == "3*y*x^2"
    assert render_element(quantum_plane.zero_element(2)) == "0"
    assert render_element(quantum_plane.one()) == "1"


def test_prime_field_relations_write_no_unit_coefficient():
    pres = parse_presentation_text("field 7\nvars x, y\nrel x*y - 3*y*x\n")
    quotient = pres.quotient(pres.generator(0) * pres.generator(0))
    text = presentation_to_text(quotient)
    assert text.splitlines()[2:] == ["rel x^2", "rel x*y + 4*y*x"]
    assert parse_presentation_text(text) is quotient
    assert presentation_from_dict(presentation_to_dict(quotient)) is quotient


@pytest.mark.parametrize("field, coeffs", [
    (QQ, (1, -1, 3)), (QQ, (-2, Fraction(1, 2), -1)),
    (QQ, (Fraction(-3, 4), 1, 5)), (GF(7), (1, 3, 6)), (GF(7), (4, 1, 1))])
def test_the_three_renderers_agree(field, coeffs):
    """x^2, x*y and y^2 with the same coefficients: as a commutative
    polynomial, as an element of the free algebra and as a relation."""
    ring = PolyRing(field, ["x", "y"])
    free = QuadraticPresentation.create(field, ["x", "y"], [])
    words = ((0, 0), (0, 1), (1, 1))
    poly = ring.from_terms(zip(((2, 0), (1, 1), (0, 2)), coeffs))
    element = free.from_word_coeffs(2, dict(zip(words, coeffs)))
    row = {u * 2 + v: field(c) for (u, v), c in zip(words, coeffs)}
    text = render_poly(poly)
    assert render_element(element) == text
    assert render_tensor_relation(free, row) == text
    assert render_element(free.one().scale(coeffs[0])) == \
        render_poly(ring.constant(coeffs[0]))


def test_complex_roundtrip_linear(quantum_plane):
    L = linear_resolution(quantum_plane, "right", 3)
    doc = complex_to_dict(L)
    back = complex_from_dict(doc)
    assert back.presentation is L.presentation
    assert back.side == L.side
    for a, b in zip(back.maps, L.maps):
        assert a.target_shifts == b.target_shifts
        assert a.source_shifts == b.source_shifts
        assert a.entries == b.entries
    # byte-identical JSON after a round trip
    assert json.dumps(doc, sort_keys=True) == \
        json.dumps(complex_to_dict(back), sort_keys=True)


def test_complex_roundtrip_quotient():
    pres = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    P = linear_resolution(pres, "right", 4)
    T, _ = shamash(pres, P, sum_of_squares(pres), length=4)
    doc = complex_to_dict(T)
    back = complex_from_dict(doc)
    assert back.presentation is T.presentation
    for a, b in zip(back.maps, T.maps):
        assert a.entries == b.entries


def test_left_complex_roundtrip(quantum_plane):
    L = linear_resolution(quantum_plane, "left", 3)
    back = complex_from_dict(complex_to_dict(L))
    assert back.side == "left"
    assert back.presentation is quantum_plane.opposite()
