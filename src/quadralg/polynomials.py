"""Sparse multivariate polynomials over an exact field, with monomial orders.

Monomials are exponent tuples; a polynomial is a dict from exponent tuple to
nonzero scalar.  A ``PolyRing`` fixes the field, the variable names and the
session monomial order; every polynomial belongs to a ring and operations
require matching rings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactlinalg import add_scaled
from .scalars import QQ, field_descriptor


class DegRevLex:
    """Degree-reverse-lexicographic order (the session default)."""

    name = "degrevlex"

    @staticmethod
    def key(exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))


class DegLex:
    name = "deglex"

    @staticmethod
    def key(exps):
        return (sum(exps), exps)


class Lex:
    name = "lex"

    @staticmethod
    def key(exps):
        return exps


class EliminateLast:
    """Block order that eliminates the last variable.

    Compares the exponent of the last variable first, then the base order on
    the remaining ones.  Used for the t-trick (ideal intersection) and for
    keeping auxiliary variables last.
    """

    def __init__(self, base=DegRevLex):
        self.base = base
        self.name = f"eliminate_last({base.name})"

    def key(self, exps):
        return (exps[-1], self.base.key(exps[:-1]))


DEGREVLEX = DegRevLex()
DEGLEX = DegLex()
LEX = Lex()

_ORDERS = {"degrevlex": DEGREVLEX, "deglex": DEGLEX, "lex": LEX}


def order_from_name(name):
    try:
        return _ORDERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}") from None


class PolyRing:
    """k[x_1, ..., x_n] with a fixed monomial order."""

    __slots__ = ("field", "names", "order", "_zero_exps", "gb_memo")

    def __init__(self, field, names, order=DEGREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.field = field
        self.names = names
        self.order = order
        self._zero_exps = (0,) * len(names)
        # reduced Groebner bases of ideals of this ring, by (order name,
        # frozenset of generators); filled by groebner.Ideal.groebner
        self.gb_memo = {}

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return CommPoly(self, {})

    def one(self):
        return CommPoly(self, {self._zero_exps: self.field.one})

    def constant(self, c):
        c = self.field(c)
        if not c:
            return self.zero()
        return CommPoly(self, {self._zero_exps: c})

    def var(self, which):
        if isinstance(which, str):
            which = self.names.index(which)
        exps = [0] * self.nvars
        exps[which] = 1
        return CommPoly(self, {tuple(exps): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1):
        coeff = self.field(coeff)
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        if not coeff:
            return self.zero()
        return CommPoly(self, {exps: coeff})

    def from_terms(self, terms):
        out = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            coeff = self.field(coeff)
            if len(exps) != self.nvars:
                raise ValueError("exponent vector has wrong length")
            acc = out.get(exps)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return CommPoly(self, out)

    def linear_form(self, coeffs):
        """The linear form sum_i coeffs[i] * x_i."""
        if len(coeffs) != self.nvars:
            raise ValueError("coefficient vector has wrong length")
        terms = {}
        for i, c in enumerate(coeffs):
            c = self.field(c)
            if c:
                exps = [0] * self.nvars
                exps[i] = 1
                terms[tuple(exps)] = c
        return CommPoly(self, terms)

    def extend(self, extra_names, order=None):
        return PolyRing(self.field, self.names + tuple(extra_names),
                        order or self.order)

    def fresh_name(self, base="t"):
        name = base
        while name in self.names:
            name += "_"
        return name

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names
                and self.order.name == other.order.name)

    def __hash__(self):
        return hash((field_descriptor(self.field), self.names, self.order.name))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}; {self.order.name}]"


class CommPoly:
    """A commutative polynomial: map from exponent tuple to nonzero scalar."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._lead = None

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CommPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, CommPoly):
            other = self.ring.constant(other)
        self._check(other)
        return CommPoly(self.ring, add_scaled(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return CommPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, CommPoly):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CommPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(e)
                acc = prod if acc is None else acc + prod
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return CommPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c):
        c = self.ring.field(c)
        if not c:
            return self.ring.zero()
        return CommPoly(self.ring, {e: v * c for e, v in self.terms.items()})

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def lead_monomial(self):
        if not self.terms:
            return None
        if self._lead is None:
            key = self.ring.order.key
            self._lead = max(self.terms, key=key)
        return self._lead

    def lead_coeff(self):
        lm = self.lead_monomial()
        return self.ring.field.zero if lm is None else self.terms[lm]

    def monic(self):
        lc = self.lead_coeff()
        if not lc or lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def primitive(self):
        """Divide by content; make the leading coefficient positive (over QQ).

        Over a prime field this is the monic normalization.  Canonical form
        used for minor lists ("up to scalar").
        """
        if not self.terms:
            return self
        if self.ring.field != QQ:
            return self.monic()
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        if self.terms[self.lead_monomial()] < 0:
            num = -num
        # c * den is an integer multiple of num: the result is in ints
        return CommPoly(self.ring, {e: c * den // num
                                    for e, c in self.terms.items()})

    def evaluate(self, point):
        """Evaluate at a scalar tuple (one value per variable)."""
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong length")
        field = self.ring.field
        total = field.zero
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            total = total + v
        return total

    def lift(self, bigger_ring):
        """Reinterpret in a ring with extra trailing variables."""
        pad = bigger_ring.nvars - self.ring.nvars
        if pad < 0 or bigger_ring.names[:self.ring.nvars] != self.ring.names:
            raise ValueError("not an extension ring")
        zeros = (0,) * pad
        return CommPoly(bigger_ring, {e + zeros: c for e, c in self.terms.items()})

    def drop_last_vars(self, base_ring):
        """Restrict to a ring with fewer trailing variables; the dropped
        variables must not occur."""
        keep = base_ring.nvars
        out = {}
        for e, c in self.terms.items():
            if any(e[keep:]):
                raise ValueError("polynomial involves a dropped variable")
            out[e[:keep]] = c
        return CommPoly(base_ring, out)

    def sorted_terms(self):
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda item: key(item[0]),
                      reverse=True)

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return render_poly(self)


def _render_monomial(names, exps):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_terms(terms):
    """Canonical text of ``(coefficient, monomial text)`` pairs, in the
    order given, with ``""`` as the monomial 1: a unit coefficient is not
    written before a monomial, and a negative rational is written as its
    magnitude after a minus sign."""
    pieces = []
    for coeff, mono in terms:
        neg = isinstance(coeff, (int, Fraction)) and coeff < 0
        mag = -coeff if neg else coeff
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if pieces:
            pieces.append(("- " if neg else "+ ") + body)
        else:
            pieces.append("-" + body if neg else body)
    return " ".join(pieces)


def render_poly(poly):
    """Canonical string: terms sorted descending by the session order,
    ``^`` for powers, explicit ``*``."""
    if not poly.terms:
        return "0"
    names = poly.ring.names
    return render_terms((coeff, _render_monomial(names, exps))
                        for exps, coeff in poly.sorted_terms())
