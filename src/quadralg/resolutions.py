"""Free complexes over a quadratic algebra and minimal linear resolutions.

Maps between free graded modules are matrices of homogeneous elements with
per-generator shifts.  The trivial right module is resolved degree by degree:
the (i+1)-st differential's columns are the canonical basis of the degree
(i+1) kernel of the i-th.  Left resolutions are right resolutions over the
opposite algebra, transposed at the geometric boundary.

Exactness at truncation is certified exactly: composite-zero in field
scalars from the scalar columns of each map (``composes_to_zero``), then
rank counting.  Each internal degree takes its ranks
from one top-down chain mod p, which eliminates d_L whole and each lower
d_i only on its columns outside the lead rows of the echelon of d_{i+1}: at
the characteristic over GF(p), where they are the ranks, and at a working
prime over QQ, where they are lower bounds that decide wherever they meet
the dimension; QQ shortfalls take exact ranks.  The scalar matrices of a
map are read off the algebra's left tables by one assembler, in either of
their domains: ``degree_columns`` in field scalars for the nullspaces, the
lifts and the exact ranks, and ``residue_columns`` in F_p, leaving out the
columns the chain skips, for the chain.  A map reads its entries once per
domain, into a recipe of (row, word, scalar) terms per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (AlgebraElement, GradedAutomorphism, convert_element,
                      residue_sums)
from .exactlinalg import (ResidueColumns, add_scaled, columns_to_rows,
                          modular_rank, nullspace, over_working_primes,
                          rank_of_columns, solve_batch)
from .linearforms import LinearFormMatrix, geometry_ring


class NonlinearKernelError(RuntimeError):
    """The kernel of a differential is not generated in the linear degree."""

    def __init__(self, homological_index, internal_degree, dim):
        self.homological_index = homological_index
        self.internal_degree = internal_degree
        self.dim = dim
        super().__init__(
            f"nonzero homology (dim {dim}) at homological index "
            f"{homological_index}, internal degree {internal_degree}: "
            "the algebra is not Koszul at this truncation")


class FreeModuleMap:
    """Matrix of homogeneous elements between free graded modules.

    ``entries[k][j]`` maps the j-th source generator (degree
    ``source_shifts[j]``) to the k-th target generator (degree
    ``target_shifts[k]``); it is homogeneous of the difference degree.
    """

    __slots__ = ("presentation", "target_shifts", "source_shifts", "entries",
                 "_recipes")

    def __init__(self, presentation, target_shifts, source_shifts, entries):
        self.presentation = presentation
        self.target_shifts = tuple(target_shifts)
        self.source_shifts = tuple(source_shifts)
        rows = []
        for k, row in enumerate(entries):
            row = tuple(row)
            if len(row) != len(self.source_shifts):
                raise ValueError("ragged entry matrix")
            for j, e in enumerate(row):
                want = self.source_shifts[j] - self.target_shifts[k]
                if e.coords and e.degree != want:
                    raise ValueError(
                        f"entry ({k},{j}) has degree {e.degree}, needs {want}")
            rows.append(row)
        if len(rows) != len(self.target_shifts):
            raise ValueError("row count does not match target shifts")
        self.entries = tuple(rows)
        self._recipes = {}  # scalar domain -> ``_recipe``

    @property
    def nrows(self):
        return len(self.target_shifts)

    @property
    def ncols(self):
        return len(self.source_shifts)

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def compose(self, other):
        """self o other (matrix product over the algebra).  The nonzero
        entries of each column of ``self`` are indexed once, and only
        products of two nonzero entries are taken."""
        if other.presentation is not self.presentation:
            raise ValueError("maps over different algebras")
        if other.target_shifts != self.source_shifts:
            raise ValueError("shapes/shifts do not compose")
        pres = self.presentation
        by_column = [[(k, row[t]) for k, row in enumerate(self.entries)
                      if row[t]] for t in range(self.ncols)]
        out = [[None] * other.ncols for _ in range(self.nrows)]
        for j, s in enumerate(other.source_shifts):
            sums = {}
            for t, row in enumerate(other.entries):
                b = row[j]
                if b:
                    for k, a in by_column[t]:
                        add_scaled(sums.setdefault(k, {}), (a * b).coords)
            for k, t in enumerate(self.target_shifts):
                out[k][j] = AlgebraElement(pres, max(s - t, 0),
                                           sums.get(k, {}))
        return FreeModuleMap(pres, self.target_shifts, other.source_shifts,
                             out)

    def composes_to_zero(self, other):
        """Whether self o other is zero, read off the scalar columns of
        ``self`` with no product over the algebra.  Column j of other, of
        source shift s, sums c times column (t, w) of ``degree_columns(s)``
        over the coordinates c*w of its entries (t, j): that is the image of
        source generator j, and it must vanish.  Exact, in field scalars."""
        if other.presentation is not self.presentation:
            raise ValueError("maps over different algebras")
        if other.target_shifts != self.source_shifts:
            raise ValueError("shapes/shifts do not compose")
        by_shift = {}
        for j, s in enumerate(other.source_shifts):
            if any(row[j] for row in other.entries):
                by_shift.setdefault(s, []).append(j)
        for s, group in by_shift.items():
            columns, _, labels = self.degree_columns(s)
            column = dict(zip(labels, columns))
            for j in group:
                acc = {}
                get = acc.get
                for t, row in enumerate(other.entries):
                    ent = row[j]
                    if ent:
                        for w, c in ent.coords.items():
                            for i, v in column[t, w].items():
                                acc[i] = get(i, 0) + c * v
                if any(acc.values()):
                    return False
        return True

    def add(self, other):
        if (other.target_shifts != self.target_shifts
                or other.source_shifts != self.source_shifts):
            raise ValueError("shapes/shifts differ")
        out = []
        for k in range(self.nrows):
            out.append([(self.entries[k][j] + other.entries[k][j])
                        if (self.entries[k][j] or other.entries[k][j])
                        else self.entries[k][j]
                        for j in range(self.ncols)])
        return FreeModuleMap(self.presentation, self.target_shifts,
                             self.source_shifts, out)

    def negate(self):
        return FreeModuleMap(self.presentation, self.target_shifts,
                             self.source_shifts,
                             [[-e for e in row] for row in self.entries])

    def sub(self, other):
        return self.add(other.negate())

    def scale_scalar_left(self, scalar_rows):
        """Compose with a scalar matrix on the target side."""
        pres = self.presentation
        out = []
        for srow in scalar_rows:
            row = []
            for j in range(self.ncols):
                acc = {}
                deg = max(self.source_shifts[j] - self.target_shifts[0],
                          0) if self.target_shifts else 0
                for t, c in enumerate(srow):
                    e = self.entries[t][j]
                    if c and e:
                        add_scaled(acc, e.coords, c)
                        deg = e.degree
                row.append(AlgebraElement(pres, deg, acc))
            out.append(row)
        return out

    def twist(self, tau):
        """Entrywise application of a graded automorphism."""
        if not isinstance(tau, GradedAutomorphism):
            raise TypeError("need a GradedAutomorphism")
        if tau.is_identity():
            return self
        return FreeModuleMap(
            self.presentation, self.target_shifts, self.source_shifts,
            [[tau(e) if e else e for e in row] for row in self.entries])

    def shifted(self, s):
        """The same matrix with every shift raised by ``s``."""
        if s == 0:
            return self
        return FreeModuleMap(self.presentation,
                             (t + s for t in self.target_shifts),
                             (t + s for t in self.source_shifts),
                             self.entries)

    def converted(self, target, linmap=None):
        """The same matrix over ``target``, each entry pushed along the
        algebra map ``linmap`` by ``convert_element``."""
        return FreeModuleMap(target, self.target_shifts, self.source_shifts,
                             [[convert_element(e, target, linmap) for e in row]
                              for row in self.entries])

    def row_offsets(self, e):
        """Where each target generator's block of A_{e - shift} starts in
        the rows of the internal-degree-e scalar matrix; returns (offsets,
        nrows)."""
        pres = self.presentation
        offsets = []
        total = 0
        for t in self.target_shifts:
            offsets.append(total)
            d = e - t
            total += pres.dim(d) if d >= 0 else 0
        return offsets, total

    def _recipe(self, p):
        """For each source generator j, the nonzero entries of column j as
        (row k, word, scalar) per coordinate, their scalars in the domain
        of ``tables(p)``; built once per domain (raises PrimeClash, and
        keeps nothing, when a denominator is divisible by p)."""
        recipe = self._recipes.get(p)
        if recipe is None:
            pres = self.presentation
            scalar = pres.tables(p).scalar
            recipe = []
            for j in range(self.ncols):
                terms = []
                for k, row in enumerate(self.entries):
                    ent = row[j]
                    if ent:
                        basis = pres.component(ent.degree).words
                        terms.extend((k, basis[i], r)
                                     for i, c in ent.coords.items()
                                     if (r := scalar(c)))
                recipe.append(terms)
            self._recipes[p] = recipe
        return recipe

    def _columns(self, e, p, skip=()):
        """The internal-degree-e scalar matrix in the domain of the left
        tables ``tables(p)``: (sparse columns, nrows).  Column (j, w) sums
        each term (k, word, c) of column j's recipe times basis word w of
        A_{e - shift}: the word is walked on the left through the tables,
        and its rows go to block k.  The columns whose index is in ``skip``
        are left out, and not built."""
        pres = self.presentation
        tables = pres.tables(p)
        row_offsets, total_rows = self.row_offsets(e)
        columns = [] if p is None else ResidueColumns(p)
        base = 0
        for s, recipe in zip(self.source_shifts, self._recipe(p)):
            d = e - s
            dim = pres.dim(d) if d >= 0 else 0
            words = [w for w in range(dim) if base + w not in skip]
            base += dim
            if words:
                columns.extend(residue_sums(
                    [(row_offsets[k], tables.images(word, d), c)
                     for k, word, c in recipe], words, p))
        return columns, total_rows

    def degree_columns(self, e):
        """Scalar matrix of the internal-degree-e component, as sparse
        columns of field scalars; returns (columns, nrows, col_labels)."""
        columns, total_rows = self._columns(e, None)
        pres = self.presentation
        labels = [(j, w) for j, s in enumerate(self.source_shifts)
                  if e >= s for w in range(pres.dim(e - s))]
        return columns, total_rows, labels

    def residue_columns(self, e, p, skip=()):
        """``degree_columns(e)`` reduced mod p, built from the residue tables
        ``tables(p)``, a working prime of a QQ algebra or the characteristic
        of a GF(p) one: (``ResidueColumns``, nrows), with the same rows and
        the same columns but those whose index is in ``skip``, which are not
        built.  Each entry's coordinates are reduced once per map; raises
        PrimeClash."""
        return self._columns(e, p, skip)

    def to_linear_form_matrix(self, ring=None):
        """View as a matrix of degree-1 forms (entries must be linear or 0)."""
        pres = self.presentation
        ring = ring or geometry_ring(pres)
        n = pres.n
        rows = []
        for k in range(self.nrows):
            row = []
            for j in range(self.ncols):
                ent = self.entries[k][j]
                coeffs = [pres.field.zero] * n
                if ent:
                    if ent.degree != 1:
                        raise ValueError("entry is not a linear form")
                    for i, c in ent.coords.items():
                        coeffs[i] = c
                row.append(coeffs)
            rows.append(row)
        return LinearFormMatrix(ring, rows)

    def __repr__(self):
        return (f"<map {self.nrows}x{self.ncols}, shifts "
                f"{list(self.target_shifts)} <- {list(self.source_shifts)}>")


def zero_map(presentation, target_shifts, source_shifts):
    rows = []
    for t in target_shifts:
        rows.append([AlgebraElement(presentation,
                                    max(s - t, 0), {})
                     for s in source_shifts])
    return FreeModuleMap(presentation, target_shifts, source_shifts, rows)


def diagonal_map(presentation, shifts, elements):
    """The map with ``elements[k]`` at (k, k) and zeros elsewhere, into the
    free module with ``shifts`` from the one with each shift raised by its
    element's degree."""
    if len(elements) != len(shifts):
        raise ValueError("need one element per generator")
    source = [s + e.degree for s, e in zip(shifts, elements)]
    return FreeModuleMap(
        presentation, shifts, source,
        [[e if j == k else AlgebraElement(presentation, max(s - t, 0), {})
          for j, s in enumerate(source)]
         for k, (t, e) in enumerate(zip(shifts, elements))])


def block_map(presentation, grid):
    """The map whose block (r, c) is ``grid[r][c]``: the blocks of a row
    share their target shifts, and those of a column their source shifts."""
    top = grid[0]
    if any(b.target_shifts != row[0].target_shifts
           or b.source_shifts != t.source_shifts
           for row in grid for b, t in zip(row, top)):
        raise ValueError("blocks do not line up")
    return FreeModuleMap(
        presentation,
        [t for row in grid for t in row[0].target_shifts],
        [s for b in top for s in b.source_shifts],
        [sum((b.entries[k] for b in row), ())
         for row in grid for k in range(row[0].nrows)])


@dataclass
class VerificationReport:
    """Evidence from verifying a complex at a truncation."""

    internal_cap: int
    composites_zero: list
    homology: dict = field(default_factory=dict)
    augmentation: dict = field(default_factory=dict)
    scalar_entries: list = field(default_factory=list)

    @property
    def minimal(self):
        return not self.scalar_entries

    @property
    def all_composites_zero(self):
        return all(self.composites_zero)

    def is_exact(self):
        return (self.all_composites_zero
                and all(v == 0 for v in self.homology.values())
                and all(self.augmentation.values()))

    def first_failure(self):
        for i, ok in enumerate(self.composites_zero):
            if not ok:
                return ("composite", i + 1)
        for e, ok in sorted(self.augmentation.items()):
            if not ok:
                return ("augmentation", e)
        for (i, e), dim in sorted(self.homology.items()):
            if dim:
                return ("homology", i, e, dim)
        return None

    def summary(self):
        fail = self.first_failure()
        return {
            "internal_cap": self.internal_cap,
            "exact": self.is_exact(),
            "minimal": self.minimal,
            "first_failure": fail,
        }


class FreeComplex:
    """A chain of free-module maps d_1, ..., d_L resolving the trivial
    module (right side; left-side complexes live over the opposite algebra
    and transpose at the geometric boundary)."""

    __slots__ = ("presentation", "side", "maps", "meta", "_geometric")

    def __init__(self, presentation, side, maps, meta=None):
        self.presentation = presentation
        self.side = side
        self.maps = list(maps)
        self.meta = dict(meta or {})
        self._geometric = None  # (ring, the matrix of d_2 or h_2)
        prev = None
        for d in self.maps:
            if d.presentation is not presentation:
                raise ValueError("map over a different algebra")
            if prev is not None and d.target_shifts != prev.source_shifts:
                raise ValueError("consecutive maps do not chain")
            prev = d

    @property
    def length(self):
        return len(self.maps)

    def shifts(self, i):
        if i < 0:
            return ()
        if i == 0:
            return self.maps[0].target_shifts if self.maps else (0,)
        if i <= len(self.maps):
            return self.maps[i - 1].source_shifts
        return ()

    def rank(self, i):
        return len(self.shifts(i))

    def ranks(self):
        return [self.rank(i) for i in range(self.length + 1)]

    def differential(self, i):
        """d_i, or a zero map of the right shape beyond the truncation."""
        if 1 <= i <= len(self.maps):
            return self.maps[i - 1]
        return zero_map(self.presentation, self.shifts(i - 1),
                        self.shifts(i))

    def geometric_matrix(self, i, ring=None):
        """d_i (right) or h_i (left: the transposed matrix of forms).

        The matrix of d_2, whose minors every geometric check reads (the
        point variety and its rank loci), is one object per ring, so that
        they are computed once; the others are built afresh, and their
        minors are not kept.
        """
        fmap = self.maps[i - 1]
        ring = ring or geometry_ring(fmap.presentation)
        if i == 2 and self._geometric and self._geometric[0] is ring:
            return self._geometric[1]
        m = fmap.to_linear_form_matrix(ring)
        if self.side == "left":
            m = m.transpose()
        if i == 2:
            self._geometric = (ring, m)
        return m

    def truncated(self, length):
        if length >= self.length:
            return self
        return FreeComplex(self.presentation, self.side, self.maps[:length],
                           self.meta)

    def __repr__(self):
        return (f"<{self.side} free complex over "
                f"k<{', '.join(self.presentation.names) or '1'}>, ranks "
                f"{self.ranks()}>")


def _exact_rank(cache, cplx, i, e):
    """Exact rank of d_i in internal degree e, in the field's own scalars,
    memoized per (i, e)."""
    key = (i, e)
    if key not in cache:
        cols, nrows, _ = cplx.maps[i - 1].degree_columns(e)
        cache[key] = rank_of_columns(cols, nrows, cplx.presentation.field)
    return cache[key]


def _chain_ranks(cplx, e):
    """The ranks rho_i of one top-down chain of mod-p eliminations at
    internal degree e, {i: rho_i} for 1..L; None when every working prime
    clashes.  Over GF(p) the chain runs at the characteristic, over QQ at
    the first working prime with no clash.

    d_L is eliminated whole.  Each d_i below it is eliminated only on the
    columns whose index is not a lead row of the echelon of d_{i+1}: those
    rows are d_i's column indices, and the image of d_{i+1} mod p is a
    complement of the other coordinate vectors, on which d_i vanishes when
    the composite d_i o d_{i+1} is zero.  Then, over GF(p), rho_i is the
    rank of d_i.  Over QQ each rho is the rank mod p of some columns, a
    lower bound on the rational rank, and the zero composite gives rank d_i
    + rank d_{i+1} <= dim T_{i,e}: where rho_i + rho_{i+1} meets that bound
    (or rho_1 meets dim A_e), the rational ranks are the rho.
    """
    maps = cplx.maps

    def attempt(p):
        ranks, leads = {}, set()
        for i in range(len(maps), 0, -1):
            cols, nrows = maps[i - 1].residue_columns(e, p, leads)
            ranks[i] = modular_rank(cols, nrows) if cols else 0
            leads = set(cols.leads or ())
        return ranks

    p = cplx.presentation.field.characteristic
    return attempt(p) if p else over_working_primes(attempt)


def verify_complex(cplx, internal_cap):
    """Composite-zero, homology-vanishing and minimality at a truncation.

    The composites d_i o d_{i+1} are checked in field scalars, column by
    column, from the scalar columns of d_i (``composes_to_zero``); no
    composite map is built.  When they are all zero, each internal degree
    takes the ranks of one top-down chain mod p (``_chain_ranks``): over
    GF(p) they are the ranks, and over QQ they decide an entry where they
    meet their upper bound.
    Every other entry, and every rank of a complex with a nonzero
    composite, takes the exact ranks of ``degree_columns``.  Homology
    dimensions are exact either way.  Failures are report content, not
    exceptions.
    """
    pres = cplx.presentation
    dims = {}

    def pdim(d):
        if d < 0:
            return 0
        if d not in dims:
            dims[d] = pres.dim(d)
        return dims[d]

    composites = []
    for i in range(1, cplx.length):
        composites.append(cplx.maps[i - 1].composes_to_zero(cplx.maps[i]))
    report = VerificationReport(internal_cap=internal_cap,
                                composites_zero=composites)
    # minimality: any nonzero entry of degree <= 0
    for i, d in enumerate(cplx.maps, start=1):
        for k in range(d.nrows):
            for j in range(d.ncols):
                ent = d.entries[k][j]
                if ent and ent.degree < 1:
                    report.scalar_entries.append((i, k, j))
    cache = {}
    chains = {}

    def rank(e, indices, bound):
        """The summed ranks of the d_i, i in ``indices``, at e: the chain's
        when they are exact (GF(p)) or meet ``bound`` (QQ), else exact."""
        if e not in chains:
            chains[e] = _chain_ranks(cplx, e) if all(composites) else None
        chain = chains[e]
        if chain is not None:
            total = sum(chain[i] for i in indices)
            if pres.field.characteristic or total == bound:
                return total
        return sum(_exact_rank(cache, cplx, i, e) for i in indices)

    # augmentation: d_1 surjective onto A_e for 1 <= e <= cap
    if cplx.maps:
        for e in range(1, internal_cap + 1):
            target = pdim(e)
            report.augmentation[e] = (target == 0
                                      or rank(e, (1,), target) == target)
    # homology at positions 1..length-1
    for i in range(1, cplx.length):
        for e in range(0, internal_cap + 1):
            dim_here = sum(pdim(e - s) for s in cplx.shifts(i))
            report.homology[(i, e)] = dim_here and (
                dim_here - rank(e, (i, i + 1), dim_here))
    return report


def linear_resolution(presentation, side="right", length=6, check="raise"):
    """Minimal linear resolution of the trivial module up to homological
    degree ``length``.

    The first differential is the generator row; each next one's columns are
    the canonical basis of the degree-(i+1) kernel of the previous.  The
    left side is computed over the opposite algebra.  Exactness is verified
    in internal degrees <= length + 1; ``check='raise'`` turns nonzero
    homology into NonlinearKernelError, ``check='report'`` only records it.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    pres = presentation if side == "right" else presentation.opposite()
    cache_key = ("linres", side, length, check)
    cached = pres._cache.get(cache_key)
    if cached is not None:
        return cached
    field = pres.field
    n = pres.n
    maps = []
    d1 = FreeModuleMap(pres, (0,), (1,) * n,
                       [[pres.generator(j) for j in range(n)]])
    maps.append(d1)
    for i in range(1, length):
        d = maps[-1]
        cols, nrows, labels = d.degree_columns(i + 1)
        null = nullspace(columns_to_rows(cols, nrows), len(cols), field)
        s_next = len(null)
        src = d.source_shifts
        entries = []
        for k in range(len(src)):
            row = []
            for vec in null:
                coeffs = {}
                for cidx, v in vec.items():
                    j, w = labels[cidx]
                    if j == k:
                        coeffs[w] = v
                row.append(AlgebraElement(pres, 1, coeffs))
            entries.append(row)
        maps.append(FreeModuleMap(pres, src, (i + 1,) * s_next, entries))
    cplx = FreeComplex(pres, side, maps)
    report = verify_complex(cplx, length + 1)
    cplx.meta["verification"] = report
    if check == "raise":
        if not report.all_composites_zero:
            raise AssertionError("constructed complex has nonzero composite")
        for (i, e), dim in sorted(report.homology.items()):
            if dim:
                raise NonlinearKernelError(i, e, dim)
        for e, ok in report.augmentation.items():
            if not ok:
                raise NonlinearKernelError(0, e, -1)
    pres._cache[cache_key] = cplx
    return cplx


def twist_complex(cplx, tau):
    """The complex with every differential twisted entrywise."""
    return FreeComplex(cplx.presentation, cplx.side,
                       [d.twist(tau) for d in cplx.maps],
                       {"twisted_by": tau})


def scalar_chain_isomorphism(c1, c2):
    """Invertible scalar matrices phi_i with phi_{i-1} d_i = d'_i phi_i.

    Returns the list [phi_0, ..., phi_L] or None when the complexes are not
    isomorphic over scalars.  phi_0 is normalized to the identity.
    """
    from .exactlinalg import invert_matrix
    if c1.presentation is not c2.presentation or c1.length != c2.length:
        return None
    pres = c1.presentation
    field = pres.field
    phis = [[[field.one]]]
    for i in range(1, c1.length + 1):
        d, dp = c1.maps[i - 1], c2.maps[i - 1]
        if (d.source_shifts != dp.source_shifts
                or d.target_shifts != dp.target_shifts):
            return None
        s = d.ncols
        if s == 0:
            phis.append([])
            continue
        lhs_rows = d.scale_scalar_left(phis[-1])  # phi_{i-1} o d_i
        # unknown phi_i columns: d'_i . phi_i[:, j] = lhs[:, j]
        eq_rows = []
        row_index = {}

        def row_of(k, coord):
            key = (k, coord)
            if key not in row_index:
                row_index[key] = len(eq_rows)
                eq_rows.append({})
            return row_index[key]

        for k in range(dp.nrows):
            for t in range(s):
                ent = dp.entries[k][t]
                if not ent:
                    continue
                for coord, c in ent.coords.items():
                    eq_rows[row_of(k, coord)][t] = c
        rhs_list = []
        for j in range(s):
            rhs = {}
            for k in range(d.nrows):
                ent = lhs_rows[k][j]
                if not ent:
                    continue
                for coord, c in ent.coords.items():
                    if (k, coord) in row_index:
                        rhs[row_index[(k, coord)]] = c
                    elif c:
                        return None
            rhs_list.append(rhs)
        sols = solve_batch(eq_rows, s, rhs_list, field)
        if any(sol is None for sol in sols):
            return None
        phi = [[sols[j].get(t, field.zero) for j in range(s)]
               for t in range(s)]
        if invert_matrix(phi, field) is None:
            return None
        phis.append(phi)
    return phis
