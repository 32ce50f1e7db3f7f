from fractions import Fraction

import pytest

from quadralg.algebra import QuadraticPresentation
from quadralg.parsing import (ParseError, parse_element, parse_nc_terms,
                              parse_presentation_text, presentation_to_text)
from quadralg.scalars import QQ, GF


def test_parse_nc_terms_basic():
    terms = parse_nc_terms("x*y + y*x + 2*z^2", ("x", "y", "z"), QQ)
    assert terms == {(0, 1): Fraction(1), (1, 0): Fraction(1),
                     (2, 2): Fraction(2)}


def test_parse_signs_and_fractions():
    terms = parse_nc_terms("-1/2*x*x + 3*y^2 - y*x", ("x", "y"), QQ)
    assert terms == {(0, 0): Fraction(-1, 2), (1, 1): Fraction(3),
                     (1, 0): Fraction(-1)}


def test_parse_cancellation():
    assert parse_nc_terms("x*y - x*y", ("x", "y"), QQ) == {}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_nc_terms("x+*y", ("x", "y"), QQ)
    with pytest.raises(ParseError):
        parse_nc_terms("x y", ("x", "y"), QQ)   # juxtaposition forbidden
    with pytest.raises(ParseError):
        parse_nc_terms("w", ("x", "y"), QQ)
    with pytest.raises(ParseError):
        parse_nc_terms("x^", ("x", "y"), QQ)
    with pytest.raises(ParseError):
        parse_nc_terms("", ("x", "y"), QQ)


def test_parse_presentation_with_relations():
    pres = parse_presentation_text("""
    field QQ
    vars x, y, z
    rel x*y + y*x + 2*z^2
    rel y*z + z*y + 2*x^2
    rel z*x + x*z + 2*y^2
    """)
    assert pres.n == 3 and pres.r == 3
    assert pres.dim(2) == 6


def test_parse_skew_shortcut_expands():
    pres = parse_presentation_text("""
    field QQ
    vars x, y
    skew
    1 1/2
    2 1
    """)
    direct = QuadraticPresentation.create(QQ, ("x", "y"),
                                          [{(0, 1): 1, (1, 0): -2}])
    assert pres is direct   # xy - 2yx after normalization, interned


def test_parse_skew_validation():
    with pytest.raises(ParseError):
        parse_presentation_text("vars x, y\nskew\n1 2\n3 1\n")
    with pytest.raises(ParseError):
        parse_presentation_text("vars x, y\nskew\n2 1\n1 1\n")
    with pytest.raises(ParseError):
        parse_presentation_text("vars x, y\nskew\n1 0\n0 1\n")


@pytest.mark.parametrize("rows", [
    "1 1e3\n1e-3 1",          # an exponent, refused by rel lines too
    "1 1.5\n2/3 1",           # a decimal point
    "1 1_000\n1/1000 1",      # a digit separator
    "1 1e2000000\n1 1",       # would build 10^2000000 in full
])
def test_skew_entries_follow_the_rational_grammar(rows):
    with pytest.raises(ParseError, match="bad rational"):
        parse_presentation_text(f"vars x, y\nskew\n{rows}\n")


@pytest.mark.parametrize("rows,message", [
    ("2 1\n1 1", "skew matrix needs 1 on the diagonal"),
    ("1 0\n0 1", "skew matrix entries must be nonzero"),
    ("1 2\n3 1", "skew matrix needs q_ji = 1/q_ij"),
])
def test_skew_messages_agree_at_both_entry_points(rows, message):
    q = [[Fraction(v) for v in row.split()] for row in rows.splitlines()]
    with pytest.raises(ValueError) as direct:
        QuadraticPresentation.skew(QQ, ["x", "y"], q)
    assert str(direct.value) == message
    with pytest.raises(ParseError) as parsed:
        parse_presentation_text(f"vars x, y\nskew\n{rows}\n")
    assert str(parsed.value) == f"{message} at line 2"


def test_parse_prime_field():
    pres = parse_presentation_text("field 7\nvars x, y\nrel x*y - 3*y*x\n")
    assert pres.field == GF(7)
    assert pres.dim(2) == 3


def test_parse_rejects_non_quadratic():
    with pytest.raises(ParseError):
        parse_presentation_text("vars x, y\nrel x*y*x\n")
    with pytest.raises(ParseError):
        parse_presentation_text("vars x, y\nrel x + y\n")
    with pytest.raises(ParseError):
        parse_presentation_text("vars x\nrel x*x - x*x\n")


def test_parse_unknown_directive_and_names():
    with pytest.raises(ParseError):
        parse_presentation_text("generators x, y\n")
    with pytest.raises(ParseError):
        parse_presentation_text("vars x, x\n")


def test_roundtrip_presentation(sec5_algebra):
    text = presentation_to_text(sec5_algebra)
    again = parse_presentation_text(text)
    assert again is sec5_algebra     # canonical relations intern identically


def test_parse_element_homogeneous(sec5_algebra):
    f = parse_element(sec5_algebra, "x*y", expect_degree=2)
    x, y = sec5_algebra.generator(0), sec5_algebra.generator(1)
    assert f == x * y
    with pytest.raises(ParseError):
        parse_element(sec5_algebra, "x*y + z", expect_degree=2)
    with pytest.raises(ParseError):
        parse_element(sec5_algebra, "x*y*z", expect_degree=2)


@pytest.mark.parametrize("text", [
    "vars x\nskew\n1\nvars x, y\n",          # grew the count: IndexError
    "vars x, y\nskew\n1 1\n1 1\nvars x\n",   # shrank it: rows dropped
    "vars x, y\nrel x^99999999999\n",        # a word that long is never built
    "vars x, y\nrel " + "1" * 5000 + "*x*y\n",  # above int()'s digit limit
])
def test_malformed_presentations_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_presentation_text(text)
