"""Exact linear algebra: the sparse-vector helpers (accumulate, transpose),
and two elimination kernels on sparse rows, one per kind of field.

- ``RowSpace``, a reduced row echelon form over any field, does every
  rational rank, nullspaces, batched solves and inverses.
- A mod-p echelon in Python integers does every rank over F_p:
  ``exact_rank`` over GF(p) and ``modular_rank``, which is exact at the
  characteristic of a GF(p) algebra and, at a working prime, a certified
  LOWER bound for the rank over QQ that callers combine into exact
  certificates, falling back to rational elimination where one does not
  close.  ``modular_rank`` also records the rows at which its echelon
  found its pivots (``leads``), so that a verifier can eliminate the next
  map of a complex only on the columns outside the image of this one.
  The echelon is a ``ModularEchelon``, which can also grow row by row, so
  that a caller can stop at the first rows that reach a rank.

The matrices of ``modular_rank`` are built in F_p from the start: the
algebra reduces its multiplication tables mod p once per prime (a GF(p)
one stores them mod its characteristic) and the callers hand
``modular_rank`` ``ResidueColumns``, which it eliminates as they are.
``over_working_primes`` is the one loop over ``MODULAR_PRIMES``: a
denominator divisible by the prime raises ``PrimeClash`` and moves to the
next one, and when every prime clashes there is no certificate, so the
rational ranks decide.  Reduction mod p is a ring map on p-integral
rationals, so residues built from reduced tables equal the residues of the
rational matrices (the modular method of von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5).

The mod-p kernel eliminates the sparse rows shortest first.  The matrices
of algebras with monomial or binomial relations (the skew and commutative
families) are far below 1 % dense and fill in little; relations with many
terms give denser matrices, where this kernel, over QQ and over GF(p)
alike, is several times slower than dense elimination would be.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import FpElement, QQ

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
        field = self.field
        inv = field.inv(vec[lead])
        # coerced back: an integral Fraction product becomes its int
        row = {c: field(v * inv) for c, v in vec.items()}
        # an int multiple of an int row keeps every scalar canonical; any
        # other may leave an integral Fraction, which is coerced back
        fractional = any(type(v) is Fraction for v in row.values())
        # keep older rows fully reduced against the new pivot
        for col, other in self.pivots.items():
            coeff = other.get(lead)
            if coeff:
                add_scaled(other, row, -coeff)
                if fractional or type(coeff) is Fraction:
                    for c in row.keys() & other.keys():
                        other[c] = field(other[c])
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


def _entries(row):
    """(column, scalar) pairs of a dense list row or a sparse dict row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def exact_rank(rows, field=QQ):
    """Exact rank of a matrix given by its rows: dense lists or sparse
    dicts {column: scalar}.

    Over QQ the rows go into a ``RowSpace``; over F_p their residues go
    through the mod-p echelon.  Entries are coerced into the field before
    they are tested for zero.
    """
    if field == QQ:
        space = RowSpace(QQ)
        for row in rows:
            space.add({j: c for j, v in _entries(row) if (c := QQ(v))})
        return space.rank
    return len(_echelon_leads([{j: c for j, v in _entries(row)
                                if (c := field(v).val)} for row in rows],
                              field.p))


class PrimeClash(Exception):
    """A denominator was divisible by the working prime."""


def residue(value, p):
    """The residue mod p of an int, a p-integral Fraction or an element of
    F_p itself; raises PrimeClash when the denominator is divisible by p."""
    if type(value) is int:
        return value % p
    # before Fraction, whose isinstance test goes through its ABC
    if isinstance(value, FpElement) and value.p == p:
        return value.val
    if isinstance(value, Fraction):
        den = value.denominator
        if den == 1:
            return value.numerator % p
        den %= p
        if den == 0:
            raise PrimeClash
        return value.numerator * pow(den, -1, p) % p
    return int(value) % p


def residues(terms, p):
    """The nonzero residues mod p of a sparse dict's values, by key; raises
    PrimeClash as ``residue`` does."""
    return {k: r for k, c in terms.items() if (r := residue(c, p))}


def over_working_primes(attempt):
    """``attempt(p)`` for the first of ``MODULAR_PRIMES`` at which it raises
    no PrimeClash; None, no certificate, when every prime clashes."""
    for p in MODULAR_PRIMES:
        try:
            return attempt(p)
        except PrimeClash:
            continue
    return None


class ResidueColumns(list):
    """Sparse columns {row: nonzero residue} of a matrix already reduced
    mod ``prime``.  ``modular_rank`` sets ``leads``: the rows at which its
    echelon found its pivots, one per unit of rank (None until then)."""

    __slots__ = ("prime", "leads")

    def __init__(self, prime, columns=()):
        super().__init__(columns)
        self.prime = prime
        self.leads = None


class ModularEchelon:
    """An echelon over F_p of sparse rows {column: nonzero residue}, which
    may grow by several ``insert`` calls: one pivot row per unit of rank.

    Rows are inserted shortest first into an echelon keyed by each row's
    largest column, with no back-reduction.  On the resolution certificates
    the largest column needs about a fifth fewer row reductions than the
    smallest; on the GF(p) ranks it is no different.  A pivot row is kept
    as it was found, and its lead is inverted the first time a reduction
    uses it, so that a row no later row meets costs no inverse and no copy.
    """

    __slots__ = ("p", "pivots", "_inverses")

    def __init__(self, p):
        self.p = p
        self.pivots = {}  # the largest column of a pivot row -> the row
        self._inverses = {}

    def insert(self, rows):
        """Insert the rows, which are consumed; returns the rank so far."""
        p, pivots, inverses = self.p, self.pivots, self._inverses
        for row in sorted(filter(None, rows), key=len):
            while row:
                lead = max(row)
                prow = pivots.get(lead)
                if prow is None:
                    pivots[lead] = row
                    break
                inv = inverses.get(lead)
                if inv is None:
                    inv = inverses[lead] = pow(prow[lead], -1, p)
                coeff = row[lead] * inv % p
                get = row.get
                for c, v in prow.items():
                    acc = (get(c, 0) - coeff * v) % p
                    if acc:
                        row[c] = acc
                    else:
                        del row[c]
        return len(pivots)


def _echelon_leads(rows, p):
    """The pivot columns of a ``ModularEchelon`` of the rows, which are
    consumed: one per unit of rank."""
    echelon = ModularEchelon(p)
    echelon.insert(rows)
    return list(echelon.pivots)


def modular_rank(columns, nrows):
    """Rank over F_p of ``ResidueColumns`` reduced mod a working prime p: a
    lower bound for the rank over QQ of the columns they reduce, which the
    certificates in the verifiers close.  The columns are eliminated over
    their own prime, as the ``nrows``-long rows of the transpose (like
    ``rank_of_columns``), and are not consumed; the rows of the matrix at
    which the echelon found its pivots go to ``columns.leads``.  The
    columns restricted to those rows have full rank, so the columns span a
    complement of the coordinate vectors of the other rows."""
    columns.leads = _echelon_leads([dict(c) for c in columns], columns.prime)
    return len(columns.leads)


def rank_of_columns(columns, nrows, field=QQ):
    """Exact rank of a sparse-column matrix over the field: the rank of its
    transpose, whose rows are the columns."""
    return exact_rank(columns, field)


def invert_matrix(rows, field=QQ):
    """Exact inverse of a small square matrix; None if singular."""
    n = len(rows)
    sparse = [{j: c for j, v in enumerate(row) if (c := field(v))}
              for row in rows]
    sols = solve_batch(sparse, n, [{i: field.one} for i in range(n)], field)
    if any(sol is None for sol in sols):
        return None
    return [[sols[j].get(i, field.zero) for j in range(n)] for i in range(n)]


def mat_mul(a, b, field=QQ):
    """Dense scalar matrix product."""
    if not a or not b:
        return []
    out = []
    for row in a:
        out.append([sum((row[k] * b[k][j] for k in range(len(b))),
                        field.zero) for j in range(len(b[0]))])
    return out
