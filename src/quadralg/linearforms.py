"""Projective points and matrices of linear forms: evaluation, minors, rank.

A LinearFormMatrix is an s x r matrix whose entries are degree-1 forms in the
generators, stored as coefficient tuples.  Its t-minors are commutative
homogeneous polynomials of degree t; evaluating at a projective point gives a
scalar matrix whose rank drops exactly on the minor locus.
"""

from __future__ import annotations

from itertools import combinations

from .exactlinalg import exact_rank
from .groebner import Ideal
from .scalars import QQ


class ProjPoint:
    """A point of projective space, canonicalized so the first nonzero
    coordinate is 1.  Equality is proportionality."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field=QQ):
        coords = tuple(field(c) for c in coords)
        lead = None
        for c in coords:
            if c:
                lead = c
                break
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = field.one / lead
        self.coords = tuple(c * inv for c in coords)
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


class LinearFormMatrix:
    """Matrix over the degree-1 part of the polynomial ring."""

    __slots__ = ("ring", "rows", "shape")

    def __init__(self, ring, rows):
        self.ring = ring
        n = ring.nvars
        cleaned = []
        width = None
        for row in rows:
            entries = []
            for entry in row:
                entry = tuple(ring.field(c) for c in entry)
                if len(entry) != n:
                    raise ValueError("entry has wrong coefficient length")
                entries.append(entry)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged matrix")
            cleaned.append(tuple(entries))
        self.rows = tuple(cleaned)
        self.shape = (len(cleaned), width or 0)

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
        out = []
        for row in self.rows:
            out.append([sum((c * x for c, x in zip(entry, point)), field.zero)
                        for entry in row])
        return out

    def rank_at(self, point):
        return exact_rank(self.eval_at(point), self.ring.field)

    def minors(self, t, normalize=True):
        """All t x t minors as polynomials of degree t.

        Convention: empty list when t exceeds min(shape) (the locus is all of
        projective space).  With ``normalize`` the minors are content-free
        with positive leading coefficient, deduplicated, zeros dropped.
        """
        s, r = self.shape
        if t < 1:
            raise ValueError("t must be >= 1")
        if t > min(s, r):
            return []
        ring = self.ring
        out = []
        seen = set()
        for row_set in combinations(range(s), t):
            memo = {}

            def det(k, cols):
                # expand along row row_set[k]; cols is a tuple of free columns
                if not cols:
                    return ring.one()
                cached = memo.get((k, cols))
                if cached is not None:
                    return cached
                total = ring.zero()
                i = row_set[k]
                for pos, j in enumerate(cols):
                    entry = self.rows[i][j]
                    if not any(entry):
                        continue
                    sub = det(k + 1, cols[:pos] + cols[pos + 1:])
                    if sub:
                        term = ring.linear_form(entry) * sub
                        total = total + (term if pos % 2 == 0 else -term)
                memo[(k, cols)] = total
                return total

            for col_set in combinations(range(r), t):
                m = det(0, col_set)
                if not normalize:
                    out.append(m)
                    continue
                if not m:
                    continue
                m = m.primitive()
                fid = frozenset(m.terms.items())
                if fid not in seen:
                    seen.add(fid)
                    out.append(m)
        if normalize:
            key = self.ring.order.key
            out.sort(key=lambda q: key(q.lead_monomial()))
        return out

    def minor_ideal(self, t):
        return Ideal(self.ring, self.minors(t))

    def __repr__(self):
        s, r = self.shape
        lines = []
        for i in range(s):
            lines.append("[" + ", ".join(str(self.entry_poly(i, j))
                                         for j in range(r)) + "]")
        return "\n".join(lines)

