"""Free complexes over a quadratic algebra and minimal linear resolutions.

Maps between free graded modules are matrices of homogeneous elements with
per-generator shifts.  Column j of source shift s is also a coordinate
vector at internal degree s, block k in A_{s - target shift k}; one
converter pair, ``map_from_vectors`` and ``column_vectors``, moves between
the two.  One kernel composes: column j of self o other sums the scalar
columns of self at s (``_image_columns``), for ``compose`` and
``composes_to_zero``.  The trivial right module is resolved degree by
degree: the (i+1)-st differential's columns are the canonical basis of the
degree (i+1) kernel of the i-th.  Left resolutions are right resolutions
over the opposite algebra, transposed at the geometric boundary.

Exactness at truncation is certified exactly: composite-zero, then rank
counting.  Each internal degree takes its ranks from one top-down chain
mod p, which eliminates d_L whole and each lower d_i only on its columns
outside the lead rows of the echelon of d_{i+1}: at the characteristic
over GF(p), where they are the ranks, and at a working prime over QQ,
where they are lower bounds that decide wherever they meet the dimension;
QQ shortfalls take exact ranks.  The scalar matrices of a map are read off
the algebra's left tables by one assembler, in either of their domains:
``degree_columns`` in field scalars for the compositions, nullspaces,
lifts and exact ranks, and ``residue_columns`` in F_p, leaving out the
columns the chain skips, for the chain.  A map reads its entries once per
domain, into a recipe of (row, word, scalar) terms per column.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .algebra import (AlgebraElement, GradedAutomorphism, convert_element,
                      residue_sums)
from .exactlinalg import (ResidueColumns, columns_to_rows, modular_rank,
                          nullspace, over_working_primes, rank_of_columns)
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
        """self o other with no product over the algebra: the images of
        ``_image_columns`` split into entries by ``map_from_vectors``."""
        return map_from_vectors(self.presentation, self.target_shifts,
                                other.source_shifts,
                                self._image_columns(other))

    def composes_to_zero(self, other):
        """Whether self o other is zero: every image is zero."""
        return not any(self._image_columns(other))

    def _image_columns(self, other):
        """For each source generator j of ``other``, of shift s, its image
        under self o other in the rows of ``self.degree_columns(s)``: c
        times column i summed over the cells (i, c) of column j of
        ``other`` as a vector at s.  A zero column builds no matrix."""
        if other.presentation is not self.presentation:
            raise ValueError("maps over different algebras")
        if other.target_shifts != self.source_shifts:
            raise ValueError("shapes/shifts do not compose")
        vectors = column_vectors(other)
        images = [{} for _ in vectors]
        by_shift = {}
        for j, (s, vec) in enumerate(zip(other.source_shifts, vectors)):
            if vec:
                by_shift.setdefault(s, []).append(j)
        for s, group in by_shift.items():
            columns = self.degree_columns(s)[0]
            for j in group:
                acc = {}
                get = acc.get
                for i, c in vectors[j].items():
                    for r, v in columns[i].items():
                        acc[r] = get(r, 0) + c * v
                images[j] = {r: v for r, v in acc.items() if v}
        return images

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
        row_offsets, total_rows = block_offsets(pres, self.target_shifts, e)
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
        columns of field scalars, one per coordinate of the source at e
        (``block_offsets``); returns (columns, nrows)."""
        return self._columns(e, None)

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


def block_offsets(presentation, shifts, e):
    """Where each generator's block of A_{e - shift} starts among the
    coordinates, at internal degree e, of the free module with ``shifts``
    (the rows of a scalar matrix at e of a map into it); returns (offsets,
    total)."""
    offsets = []
    total = 0
    for t in shifts:
        offsets.append(total)
        d = e - t
        total += presentation.dim(d) if d >= 0 else 0
    return offsets, total


def map_from_vectors(presentation, target_shifts, source_shifts, vectors):
    """The map whose column j has the coordinates ``vectors[j]`` at its
    source shift s: entry k is the block of A_{s - target_shifts[k]} at
    its ``block_offsets``.  Each vector is split in one pass, bisecting the
    block starts; an empty one is a zero column and reads no dimension."""
    starts = {}
    rows = [[] for _ in target_shifts]
    for s, vec in zip(source_shifts, vectors):
        blocks = [{} for _ in target_shifts]
        if vec:
            if s not in starts:
                starts[s] = block_offsets(presentation, target_shifts, s)[0]
            offsets = starts[s]
            for i, v in vec.items():
                k = bisect_right(offsets, i) - 1
                blocks[k][i - offsets[k]] = v
        for row, t, block in zip(rows, target_shifts, blocks):
            row.append(AlgebraElement(presentation, max(s - t, 0), block))
    return FreeModuleMap(presentation, target_shifts, source_shifts, rows)


def column_vectors(fmap):
    """Each column of ``fmap`` as a coordinate vector at its source shift,
    in the rows of the scalar matrices there: the inverse of
    ``map_from_vectors``."""
    pres = fmap.presentation
    starts = {}
    vectors = []
    for j, s in enumerate(fmap.source_shifts):
        vec = {}
        for k, row in enumerate(fmap.entries):
            ent = row[j]
            if ent:
                if s not in starts:
                    starts[s] = block_offsets(pres, fmap.target_shifts, s)[0]
                off = starts[s][k]
                for w, c in ent.coords.items():
                    vec[off + w] = c
        vectors.append(vec)
    return vectors


def zero_map(presentation, target_shifts, source_shifts):
    return map_from_vectors(presentation, target_shifts, source_shifts,
                            [{}] * len(source_shifts))


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
        cols, nrows = cplx.maps[i - 1].degree_columns(e)
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
    maps = [map_from_vectors(pres, (0,), (1,) * n,
                             [{j: field.one} for j in range(n)])]
    for i in range(1, length):
        d = maps[-1]
        cols, nrows = d.degree_columns(i + 1)
        null = nullspace(columns_to_rows(cols, nrows), len(cols), field)
        maps.append(map_from_vectors(pres, d.source_shifts,
                                     (i + 1,) * len(null), null))
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

    Returns [phi_0, ..., phi_L], phi_0 the identity, or None.  phi_i is
    read off ``lift_against(d'_i, Phi_{i-1} o d_i)``, Phi_{i-1} being
    phi_{i-1} as a map of degree-0 elements: None when that lift is
    inconsistent or phi_i is singular.  A scalar matrix is graded only
    between generators of equal shift, so the rule is one shift per F_i,
    i >= 1, where every unknown of the lift is a scalar; a complex with
    two shifts in one degree gives None.
    """
    from .exactlinalg import invert_matrix
    from .shamash import HomotopyLiftError, lift_against
    if c1.presentation is not c2.presentation or c1.length != c2.length:
        return None
    pres = c1.presentation
    field = pres.field
    rank0 = c1.rank(0)
    phis = [[[field.one if k == j else field.zero for j in range(rank0)]
             for k in range(rank0)]]
    for d, dp in zip(c1.maps, c2.maps):
        if (d.source_shifts != dp.source_shifts
                or d.target_shifts != dp.target_shifts
                or len(set(d.source_shifts)) > 1):
            return None
        prev = FreeModuleMap(pres, dp.target_shifts, d.target_shifts,
                             [[AlgebraElement(pres, 0, {0: c}) for c in row]
                              for row in phis[-1]])
        try:
            lift = lift_against(dp, prev.compose(d))
        except HomotopyLiftError:
            return None
        phi = [[ent.coords.get(0, field.zero) for ent in row]
               for row in lift.entries]
        if invert_matrix(phi, field) is None:
            return None
        phis.append(phi)
    return phis
