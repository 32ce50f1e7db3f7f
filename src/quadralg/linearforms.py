"""Projective points and matrices of linear forms: evaluation, minors, rank.

A LinearFormMatrix is an s x r matrix whose entries are degree-1 forms in the
generators, stored as coefficient tuples.  Its t-minors are commutative
homogeneous polynomials of degree t; evaluating at a projective point gives a
scalar matrix whose rank drops exactly on the minor locus.  The minors are
expanded fraction-free, on integer term dicts, and deduplicated up to scalar
as they are made.  One pass visits every (row set, column set) pair once,
in a scattered order fixed by the shape and t, and shares sub-determinants
across row sets through a bounded memo.  An emptiness test with the minors
can often stop early: ``spanning_minors`` expands them only until their span
is every form of their degree.
"""

from __future__ import annotations

from math import comb, gcd, isqrt, lcm

from .exactlinalg import (MODULAR_PRIMES, ModularEchelon, exact_rank,
                          residues)
from .groebner import Ideal
from .polynomials import DEGREVLEX, CommPoly, PolyRing
from .scalars import QQ


class ProjPoint:
    """A point of projective space, canonicalized so the first nonzero
    coordinate is 1.  Equality is proportionality."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field=QQ):
        coords = tuple(field(c) for c in coords)
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        self.coords = tuple(field.div(c, lead) for c in coords)
        self.field = field

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def geometry_ring(presentation):
    """The commutative ring of the generators, one per presentation."""
    ring = presentation._cache.get("geometry_ring")
    if ring is None:
        ring = PolyRing(presentation.field, presentation.names, DEGREVLEX)
        presentation._cache["geometry_ring"] = ring
    return ring


# entries of the sub-determinant memo of one pass over the minors; the memo
# is cleared when it reaches this size, which bounds its memory
_MEMO_CAP = 1 << 16


def _unrank(rank, n, t, binom):
    """The t-subset of range(n) at position ``rank`` in lex order;
    ``binom[m][k]`` is C(m, k)."""
    out = []
    x = 0
    for k in range(t, 0, -1):
        # the subsets that start at x and take k - 1 more from above it
        while binom[n - x - 1][k - 1] <= rank:
            rank -= binom[n - x - 1][k - 1]
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _scattered_pairs(s, r, t):
    """Yield ``(lex, row_set, col_set)`` once for every pair of a t-subset
    of the s rows and one of the r columns.  ``lex`` is the pair's index in
    lex order (row sets, then column sets within each), N pairs in all;
    the i-th pair yielded is the one at lex index step·i mod N, where step
    is the first odd integer >= floor(N/phi) coprime to N.  So the order is
    a bijection and depends only on (s, r, t).  Pairs that follow each
    other share few rows, where the lex walk keeps one row set for C(r, t)
    pairs in a row, so a span tends to come sooner: the 7-minors of the
    11 x 15 matrix of the n = 5 check span after 6,067 distinct minors in
    this order and 62,086 in lex order."""
    binom = [[comb(m, k) for k in range(t + 1)] for m in range(max(s, r))]
    cols = comb(r, t)
    count = comb(s, t) * cols
    # floor(N/phi) = floor((N*sqrt(5) - N)/2), in exact integers
    step = (isqrt(5 * count * count) - count) // 2 | 1
    while gcd(step, count) != 1:
        step += 2
    for i in range(count):
        lex = step * i % count
        yield (lex, _unrank(lex // cols, s, t, binom),
               _unrank(lex % cols, r, t, binom))


_UNIT = {0: 1}  # the determinant of no rows: the constant 1


def _det(rows, row_set, k, cols, memo, cut, p):
    """Determinant of the rows row_set[:k] and the columns ``cols`` (sorted
    tuples) of ``rows``, whose entries are lists of (packed variable,
    integer coefficient); a term dict of packed monomials, reduced mod p
    when p is set.  Expanded along row row_set[k - 1], so the minors of the
    rows above it come from ``memo`` when they have at most ``cut`` rows."""
    if not k:
        return _UNIT
    if k <= cut:
        key = (row_set[:k], cols)
        total = memo.get(key)
        if total is not None:
            return total
    total = {}
    get = total.get
    row = rows[row_set[k - 1]]
    for pos, j in enumerate(cols):
        if row[j]:
            sub = _det(rows, row_set, k - 1, cols[:pos] + cols[pos + 1:],
                       memo, cut, p)
            odd = (k - 1 + pos) & 1
            for sh, c in row[j]:
                c = -c if odd else c
                for e, v in sub.items():
                    total[e + sh] = get(e + sh, 0) + c * v
    total = ({e: w for e, v in total.items() if (w := v % p)} if p
             else {e: v for e, v in total.items() if v})
    if k <= cut:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = total
    return total


class LinearFormMatrix:
    """Matrix over the degree-1 part of the polynomial ring."""

    __slots__ = ("ring", "rows", "shape", "_minors", "_spanning")

    def __init__(self, ring, rows):
        self.ring = ring
        self._minors = {}  # t -> the list ``minors(t)`` returns a copy of
        self._spanning = {}  # t -> (``spanning_minors(t)``, whether it spans)
        self.rows = tuple(tuple(tuple(ring.field(c) for c in entry)
                                for entry in row) for row in rows)
        if any(len(e) != ring.nvars for row in self.rows for e in row):
            raise ValueError("entry has wrong coefficient length")
        widths = {len(row) for row in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        self.shape = (len(self.rows), widths.pop() if widths else 0)

    def entry_poly(self, i, j):
        return self.ring.linear_form(self.rows[i][j])

    def transpose(self):
        s, r = self.shape
        return LinearFormMatrix(
            self.ring, [[self.rows[i][j] for i in range(s)] for j in range(r)])

    def eval_at(self, point):
        """Scalar matrix M_p (well-defined up to a global scalar)."""
        if isinstance(point, ProjPoint):
            point = point.coords
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong length")
        field = self.ring.field
        point = [field(c) for c in point]
        return [[sum((c * x for c, x in zip(entry, point)), field.zero)
                 for entry in row] for row in self.rows]

    def rank_at(self, point):
        return exact_rank(self.eval_at(point), self.ring.field)

    def minors(self, t):
        """All t x t minors, content-free with positive leading coefficient
        (monic over GF(p)), zeros dropped, each kept once in order of first
        occurrence in the lex walk over (row set, column set) pairs, then
        stably sorted by leading monomial.  Empty when t exceeds
        min(shape): the locus is all of projective space.

        Computed once per matrix and t; a ``spanning_minors(t)`` that
        stopped early leaves its prefix to be expanded again here.  The
        pass (``_distinct_minors``) visits the pairs in a scattered order
        and keeps, for each distinct minor, the least lex index of a pair
        that gave it, so the list is the one the lex walk gives.  Each row
        is scaled by the positive integer clearing its denominators
        (residues over GF(p)), which changes no normalized minor, and a
        monomial is one int in base t + 1, so x_i * m is m + (t + 1)**i.
        """
        if t < 1:
            raise ValueError("t must be >= 1")
        if t not in self._minors:
            self._minors[t] = self._expand_minors(t)
        return list(self._minors[t])

    def spanning_minors(self, t):
        """The first distinct t-minors whose span is every form of degree t,
        sorted like ``minors``; all of ``minors(t)`` when no prefix spans.
        "First" is in the scattered pair order of ``_scattered_pairs``,
        which depends only on the shape and t, or in the order of
        ``minors(t)`` when that is already known.

        Each minor's coefficient vector goes into one ``ModularEchelon``
        as the minor is found: at the characteristic over GF(p), and over
        QQ at the first working prime, where the rank is a lower bound (the
        minors have integer coefficients, so no denominator clashes).  The
        expansion stops when the rank reaches C(n + t - 1, t), so each
        vector is reduced once and no shorter prefix spans mod p.  A pass
        that sees every minor stores them as ``minors(t)``, so such a
        matrix is expanded once.  Memoized per t.

        Every verdict drawn from a prefix is exact: the prefix lies in the
        ideal of t-minors, so an ideal containing it with no projective
        zero shows that the ideal with every t-minor has none.
        """
        return list(self._span(t)[0])

    def minors_span(self, t):
        """Whether ``spanning_minors(t)`` spans every form of degree t
        (False also when only a rank mod p falls short over QQ)."""
        return self._span(t)[1]

    def _span(self, t):
        if t < 1:
            raise ValueError("t must be >= 1")
        if t not in self._spanning:
            forms = comb(self.ring.nvars + t - 1, t)
            p = self.ring.field.characteristic or MODULAR_PRIMES[0]
            echelon = ModularEchelon(p)
            known = self._minors.get(t)
            found = []
            for minor, first in (self._distinct_minors(t) if known is None
                                 else ((m, None) for m in known)):
                found.append((minor, first))
                if echelon.insert([residues(minor.terms, p)]) == forms:
                    self._spanning[t] = (
                        self._by_lead([m for m, _ in found]), True)
                    break
            else:
                # every minor was seen, and they do not span
                if known is None:
                    self._minors[t] = known = self._in_lex_order(found)
                self._spanning[t] = (known, False)
        return self._spanning[t]

    def _expand_minors(self, t):
        return self._in_lex_order(self._distinct_minors(t))

    def _by_lead(self, minors):
        key = self.ring.order.key
        return sorted(minors, key=lambda q: key(q.lead_monomial()))

    def _in_lex_order(self, found):
        """The minors of a full pass as ``minors`` lists them: by leading
        monomial, and among equal ones by the least lex index of a pair that
        gave the minor (its first occurrence in the lex walk)."""
        key = self.ring.order.key
        return [m for m, _ in sorted(
            found, key=lambda mf: (key(mf[0].lead_monomial()), mf[1][0]))]

    def _distinct_minors(self, t):
        """Yield ``(minor, first)`` once for each distinct normalized t-minor,
        as the pairs of ``_scattered_pairs`` first reach it.  ``first`` is a
        one-element list holding the least lex index of a pair seen so far
        to give the minor; after a full pass, the least of all.

        The determinant of each pair is expanded along its last row.
        Sub-determinants of at most t - 2 rows are shared by every pair
        through one memo keyed by (row subset, column subset); it is
        cleared when it holds ``_MEMO_CAP`` entries and freed with the
        pass."""
        s, r = self.shape
        if t > min(s, r):
            return
        ring = self.ring
        p = ring.field.characteristic
        key = ring.order.key
        shifts = [(t + 1) ** i for i in range(ring.nvars)]
        rows = []
        for row in self.rows:
            den = 1 if p else lcm(*(c.denominator for e in row for c in e))
            rows.append([[(sh, c.val if p else c.numerator * den
                           // c.denominator)
                          for sh, c in zip(shifts, e) if c] for e in row])
        memo = {}
        seen = {}
        for lex, row_set, col_set in _scattered_pairs(s, r, t):
            m = _det(rows, row_set, t, col_set, memo, t - 2, p)
            if not m:
                continue
            # a fixed term pins the scalar for the deduplication; the
            # survivors move it to the order's leading term below
            c = m[max(m)]
            if p:
                g = pow(c, -1, p)
                canon = frozenset((e, v * g % p) for e, v in m.items())
            else:
                g = gcd(*m.values()) if c > 0 else -gcd(*m.values())
                canon = frozenset((e, v // g) for e, v in m.items())
            first = seen.get(canon)
            if first is None:
                seen[canon] = first = [lex]
                terms = {tuple(e // sh % (t + 1) for sh in shifts): v
                         for e, v in canon}
                # as primitive() would: canon is content-free, so only
                # the leading coefficient's sign (QQ) or inverse (GF(p))
                c = terms[max(terms, key=key)]
                g = pow(c, -1, p) if p else (1 if c > 0 else -1)
                yield CommPoly(ring, {
                    e: ring.field(v * g % p if p else v * g)
                    for e, v in terms.items()}), first
            elif lex < first[0]:
                first[0] = lex

    def minor_ideal(self, t):
        return Ideal(self.ring, self.minors(t))

    def __repr__(self):
        return "\n".join("[" + ", ".join(str(self.ring.linear_form(e))
                                          for e in row) + "]"
                         for row in self.rows)

