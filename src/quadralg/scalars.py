"""Exact ground fields: the rationals and prime fields.

Every computation in the package runs over one of these fields; there is no
floating point anywhere.  Rational scalars are plain ``fractions.Fraction``;
prime-field scalars are lightweight wrappers around ints mod p.  A field
object knows how to coerce user input (ints, Fractions, strings like
``"-3/4"``) into its scalar type.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """The field QQ.  Scalars are ``Fraction``."""

    __slots__ = ()

    characteristic = 0

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, FpElement):
            raise TypeError("cannot coerce a prime-field scalar into QQ")
        return Fraction(value)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

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
