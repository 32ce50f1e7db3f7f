"""Exact linear algebra: the sparse-vector helpers (accumulate, transpose),
sparse reduced row echelon form, fraction-free rank, nullspaces, batched
linear solves, and a sparse mod-p rank kernel.

Everything here is exact.  ``rank_mod_p`` computes rank over F_p, which is a
certified LOWER bound for the rank over QQ of an integer matrix; callers
combine such bounds into exact certificates and fall back to rational
elimination when the certificate does not close.  The kernel eliminates the
sparse rows in Python integers mod p, shortest rows first.  The certificate
matrices of algebras with monomial or binomial relations (the skew and
commutative families) are far below 1 % dense and fill in little; relations
with many terms give denser matrices, where this kernel is several times
slower than dense elimination would be.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import QQ, FpElement

# Primes just under 2^31: large enough that a random rank drop mod p is
# rare, so the certificates close without the rational fallback.
MODULAR_PRIMES = (2147483647, 2147483629, 2147483587)


def add_scaled(out, vec, c=None):
    """``out += c * vec`` in place for sparse dicts (``c=None`` adds ``vec``
    itself); entries that reach zero are dropped.  Returns ``out``."""
    get = out.get
    for k, v in vec.items():
        if c is not None:
            v = c * v
        acc = get(k)
        acc = v if acc is None else acc + v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


def columns_to_rows(columns, nrows):
    """Transpose a sparse-column matrix: the list of its ``nrows`` sparse
    rows, indexed by row."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


class RowSpace:
    """Canonical reduced row echelon form of a growing set of sparse vectors.

    Rows are dicts {column index: scalar}.  Pivot rows are monic at their
    pivot (the smallest occupied column) and fully reduced against each
    other, so ``reduce`` is a canonical projection onto the complement.
    """

    __slots__ = ("field", "pivots")

    def __init__(self, field=QQ):
        self.field = field
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Fully reduce ``vec`` (a sparse dict); returns a new dict."""
        vec = dict(vec)
        pivots = self.pivots
        while vec:
            hit = [c for c in vec if c in pivots]
            if not hit:
                break
            for col in sorted(hit):
                coeff = vec.get(col)
                if coeff:
                    add_scaled(vec, pivots[col], -coeff)
                else:
                    vec.pop(col, None)
        return vec

    def add(self, vec):
        """Insert the span of ``vec``; returns True if the rank grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = min(vec)
        inv = self.field.one / vec[lead]
        row = {c: v * inv for c, v in vec.items()}
        # keep older rows fully reduced against the new pivot
        for col, other in self.pivots.items():
            coeff = other.get(lead)
            if coeff:
                add_scaled(other, row, -coeff)
        self.pivots[lead] = row
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def nullspace(rows, ncols, field=QQ):
    """Canonical nullspace basis of the matrix with the given sparse rows.

    Returns a list of sparse dicts: for each free column f (ascending) the
    vector with 1 at f and the forced pivot entries.
    """
    space = RowSpace(field)
    for r in rows:
        space.add(r)
    pivots = space.pivots
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: field.one}
        for p, row in pivots.items():
            c = row.get(f)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def solve_batch(rows, ncols, rhs_columns, field=QQ):
    """Solve A x = b for several right-hand sides at once.

    ``rows``: sparse equation rows over columns 0..ncols-1.
    ``rhs_columns``: list of sparse dicts {equation index: scalar}.
    Returns one solution per rhs: the particular solution with all free
    variables set to zero, or None when that rhs is inconsistent.
    """
    k = len(rhs_columns)
    space = RowSpace(field)
    for i, row in enumerate(rows):
        aug = dict(row)
        for j, rhs in enumerate(rhs_columns):
            v = rhs.get(i)
            if v:
                aug[ncols + j] = v
        space.add(aug)
    bad = set()
    for lead, row in space.pivots.items():
        if lead >= ncols:
            for j in range(k):
                if row.get(ncols + j):
                    bad.add(j)
    out = []
    for j in range(k):
        if j in bad:
            out.append(None)
            continue
        sol = {}
        for p, row in space.pivots.items():
            if p < ncols:
                v = row.get(ncols + j)
                if v:
                    sol[p] = v
        out.append(sol)
    return out


def _integerize_rows(rows):
    """Scale each row by the lcm of denominators: integer rows, same rank."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
        out.append([int(v * den) if isinstance(v, Fraction) else int(v) * den
                    for v in row])
    return out


def exact_rank(rows, field=QQ):
    """Exact rank of a dense scalar matrix (list of rows).

    Over QQ: fraction-free Gaussian elimination (Bareiss) after clearing
    denominators row-wise.  Over F_p: ordinary elimination on residues.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if field == QQ:
        m = _integerize_rows(rows)
        nrows, ncols = len(m), len(m[0])
        rank = 0
        prev = 1
        for col in range(ncols):
            piv = None
            for i in range(rank, nrows):
                if m[i][col]:
                    piv = i
                    break
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            lead = m[rank][col]
            for i in range(rank + 1, nrows):
                head = m[i][col]
                row_i = m[i]
                row_r = m[rank]
                for j in range(col, ncols):
                    row_i[j] = (lead * row_i[j] - head * row_r[j]) // prev
            prev = lead
            rank += 1
            if rank == nrows:
                break
        return rank
    p = field.p
    m = [[v.val if isinstance(v, FpElement) else int(v) % p for v in row]
         for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(rank + 1, nrows):
            head = m[i][col] % p
            if head:
                m[i] = [(a - head * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


class PrimeClash(Exception):
    """A denominator was divisible by the working prime."""


def _residue(value, p):
    if isinstance(value, Fraction):
        den = value.denominator
        if den == 1:
            return value.numerator % p
        den %= p
        if den == 0:
            raise PrimeClash
        return value.numerator * pow(den, -1, p) % p
    return int(value) % p


def rank_mod_p(columns, nrows, p):
    """Rank over F_p of the sparse-column matrix; raises PrimeClash if a
    denominator hits p.

    Rows are inserted shortest first into a monic echelon keyed by leading
    column, with no back-reduction.
    """
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            r = _residue(v, p)
            if r:
                rows[i][j] = r
    pivots = {}
    for row in sorted(filter(None, rows), key=len):
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            coeff = row[lead]
            get = row.get
            for c, v in prow.items():
                acc = (get(c, 0) - coeff * v) % p
                if acc:
                    row[c] = acc
                else:
                    del row[c]
    return len(pivots)


def modular_rank(columns, nrows):
    """Rank over some good prime, cycling on denominator clashes.

    The result is always a lower bound for the rank over QQ; equality is
    what the certificates in the verifiers establish.
    """
    for p in MODULAR_PRIMES:
        try:
            return rank_mod_p(columns, nrows, p)
        except PrimeClash:
            continue
    raise RuntimeError("all working primes clashed with a denominator")


def rank_of_columns(columns, nrows, field=QQ):
    """Exact rank of a sparse-column matrix over the field."""
    if field == QQ:
        space = RowSpace(field)
        for r in columns_to_rows(columns, nrows):
            space.add(r)
        return space.rank
    dense = [[field.zero] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            dense[i][j] = v
    return exact_rank(dense, field)


def invert_matrix(rows, field=QQ):
    """Exact inverse of a small square matrix; None if singular."""
    n = len(rows)
    aug = [[field(v) for v in row] + [field.one if i == j else field.zero
                                      for j in range(n)]
           for i, row in enumerate(rows)]
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, n):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            return None
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = field.one / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for i in range(n):
            if i != rank and aug[i][col]:
                head = aug[i][col]
                aug[i] = [a - head * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    return [row[n:] for row in aug]


def mat_mul(a, b, field=QQ):
    """Dense scalar matrix product."""
    if not a or not b:
        return []
    out = []
    for row in a:
        out.append([sum((row[k] * b[k][j] for k in range(len(b))),
                        field.zero) for j in range(len(b[0]))])
    return out
