"""Exact ground fields: the rationals and prime fields.

Every computation in the package runs over one of these fields; there is no
floating point anywhere.  A rational scalar is a Python ``int`` when it is
integral and a ``fractions.Fraction`` otherwise: ``QQ.one`` and ``QQ.zero``
are ``1`` and ``0``, and coercion returns the int for an integral value, so
algebras with integral structure constants compute in ints (a ``Fraction``
operation costs about a microsecond in pure Python; the same small-integer
fast path as FLINT's ``fmpz``/``fmpq``).  Fraction arithmetic may still
produce an integral ``Fraction``; it equals its int and hashes alike, so
only speed depends on the form.  Prime-field scalars are lightweight
wrappers around ints mod p.  A field object knows how to coerce user input
(ints, Fractions, strings like ``"-3/4"``) into its scalar type, and
refuses floats.

Scalars are divided with ``field.div(a, b)`` and ``field.inv(b)``, never
with ``/``: an int divided by an int is a float.
"""

from __future__ import annotations

from fractions import Fraction


def _canonical(q):
    """A Fraction as its int when integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field QQ.  Scalars are ``int`` when integral, else ``Fraction``."""

    __slots__ = ()

    characteristic = 0
    zero = 0
    one = 1

    def __call__(self, value):
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            return _canonical(value)
        if isinstance(value, int):  # bool
            return int(value)
        if isinstance(value, str):
            return _canonical(Fraction(value))
        if isinstance(value, FpElement):
            raise TypeError("cannot coerce a prime-field scalar into QQ")
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def div(self, a, b):
        """The exact quotient a / b in canonical form; ZeroDivisionError
        when b is zero."""
        if type(a) is int and type(b) is int:
            if not b:
                raise ZeroDivisionError("division by zero in QQ")
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _canonical(Fraction(self(a)) / self(b))

    def inv(self, b):
        """The exact inverse 1 / b in canonical form."""
        return self.div(1, b)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class FpElement:
    """An element of F_p; supports field arithmetic via operators."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed prime fields")
            return other.val
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            den = other.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return other.numerator * pow(den, -1, self.p)
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        if self.val == 0:
            raise ZeroDivisionError("division by zero in F_p")
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(v * pow(self.val, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        if isinstance(other, Fraction):
            return other.denominator % self.p != 0 and self == self._lift(other)
        return NotImplemented

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"{self.val}"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality for p < MAX_CHARACTERISTIC."""
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic {p} exceeds the certified bound "
                         f"{MAX_CHARACTERISTIC}")
    if p < 2:
        return False
    for q in MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    def __call__(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise TypeError("mixed prime fields")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return FpElement(value.numerator * pow(den, -1, self.p), self.p)
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def div(self, a, b):
        """The quotient a / b in F_p; ZeroDivisionError when b is zero."""
        return self(a) / self(b)

    def inv(self, b):
        """The inverse 1 / b in F_p; ZeroDivisionError when b is zero."""
        return self.div(1, b)

    @property
    def zero(self):
        return FpElement(0, self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_descriptor(desc):
    """Parse a field descriptor: "QQ" or a prime (int or string)."""
    if isinstance(desc, (RationalField, PrimeField)):
        return desc
    if isinstance(desc, str):
        if desc.strip().upper() in ("QQ", "Q"):
            return QQ
        return GF(int(desc))
    if isinstance(desc, int):
        return GF(desc)
    raise ValueError(f"unrecognized field descriptor {desc!r}")


def field_descriptor(field):
    return "QQ" if field == QQ else str(field.p)
