"""Point-variety geometry of quadratic algebras.

The right/left point varieties are the vanishing loci of the n-minors of the
second differentials; semi-standardness compares them, the (G1) condition
adds point-exactness at degree 1 and produces the geometric pair (E, sigma)
with sigma evaluated pointwise through the relation pairing.  Point-exactness
at higher degrees is decided ideal-theoretically.  The rank lower bound is
projective emptiness of the dropped-rank locus, tested with the first
minors that span every form of their degree (then no Groebner basis is
needed) or with all of them.  Under (G1) the rank upper bound at degree i
follows from the lower bound at degree i - 1 through the
twisted composite identity M_{i-1}(p)·M_i(sigma(p)) = 0 (right; the left
side multiplies the other way round), once an exact rank shows that the
composite's entries lie in the span of the relations; otherwise the
(rho + 1)-minors of the i-th differential are tested against the radical of
the variety ideal.  Sampling is only ever a pre-filter whose negative
answers are conclusive witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, product

from .exactlinalg import add_scaled, exact_rank, nullspace
from .groebner import Ideal, RadicalTester, projective_empty, variety_equal
from .linearforms import LinearFormMatrix, ProjPoint, geometry_ring
from .resolutions import linear_resolution


def _resolution(presentation, side, length, resolutions=None):
    if resolutions and side in resolutions:
        res = resolutions[side]
        if res.length < length:
            raise ValueError(
                f"supplied {side} resolution has length {res.length}; "
                f"need {length}")
        return res
    return linear_resolution(presentation, side, length, check="report")


def _vanishes_at(ideal, point):
    """Whether every generator of ``ideal`` vanishes at ``point``."""
    if isinstance(point, ProjPoint):
        point = point.coords
    return all(not g.evaluate(point) for g in ideal.gens)


@dataclass
class PointVarietyIdeal:
    """Vanishing locus data of one side's second differential."""

    side: str
    ideal: Ideal
    matrix: LinearFormMatrix
    n: int
    r: int

    def contains_point(self, point):
        return _vanishes_at(self.ideal, point)


def point_variety(presentation, side, resolutions=None):
    """Ideal of n-minors of d_2 (right) or h_2 (left); zero ideal when the
    minor size exceeds the matrix (the locus is all of projective space)."""
    res = _resolution(presentation, side, 2, resolutions)
    ring = geometry_ring(presentation)
    mat = res.geometric_matrix(2, ring)
    n = presentation.n
    return PointVarietyIdeal(side=side, ideal=mat.minor_ideal(n), matrix=mat,
                             n=n, r=mat.shape[1] if side == "right"
                             else mat.shape[0])


def is_semi_standard(presentation, resolutions=None):
    right = point_variety(presentation, "right", resolutions)
    left = point_variety(presentation, "left", resolutions)
    return variety_equal(right.ideal, left.ideal)


@dataclass
class GeometricPair:
    """(E, sigma) for an algebra satisfying the (G1) condition."""

    presentation: object
    ideal: Ideal                      # ideal of E
    pairings: list                    # relation matrices a^k
    semi_standard: bool
    point_exact_at_1: bool
    r_plus_one_ge_n: bool

    def contains_point(self, point):
        return _vanishes_at(self.ideal, point)


def _rank_exactly_one_less(variety, mat, n_minus):
    """All points of the variety have rank >= n_minus on ``mat``: the locus
    where the n_minus-minors also vanish must be projectively empty.

    ``projective_empty`` decides it on the variety ideal plus
    ``mat.spanning_minors(n_minus)``: the first minors whose span is every
    form of degree n_minus (then it needs no Groebner basis, and the span
    goes in as ``spanned_degree``, so it is not ranked again), or all of
    them when none spans.  The verdict is exact either way: the prefix lies
    in the ideal of n_minus-minors, so emptiness with the prefix proves
    emptiness with every minor, and with all of them the test is the full
    one."""
    if n_minus <= 0:
        return True
    lower = mat.spanning_minors(n_minus)
    if not lower:
        # rank can never reach n_minus; vacuously fine only on empty loci
        return projective_empty(variety.ideal)
    return projective_empty(
        variety.ideal + lower,
        spanned_degree=n_minus if mat.minors_span(n_minus) else None)


def check_g1(presentation, resolutions=None):
    """The geometric pair when the (G1) condition holds, else None.

    Decides: semi-standard, and on both sides every point of the variety
    gives the second differential rank exactly n - 1 (point-exactness at
    degree 1; the upper bound is automatic on the minor locus).
    """
    right = point_variety(presentation, "right", resolutions)
    left = point_variety(presentation, "left", resolutions)
    semi = variety_equal(right.ideal, left.ideal)
    if not semi:
        return None
    n = presentation.n
    pe_right = _rank_exactly_one_less(right, right.matrix, n - 1)
    pe_left = _rank_exactly_one_less(left, left.matrix, n - 1)
    if not (pe_right and pe_left):
        return None
    return GeometricPair(
        presentation=presentation,
        ideal=right.ideal,
        pairings=presentation.relation_matrices(),
        semi_standard=True,
        point_exact_at_1=True,
        r_plus_one_ge_n=(presentation.r + 1 >= n),
    )


def sigma_at(pair, point):
    """sigma(p): the unique projective nullvector q of [f_k(p, .)]_k.

    Requires p on E; raises when the nullspace is not one-dimensional
    (a (G1) certification breach)."""
    pres = pair.presentation
    field = pres.field
    if not isinstance(point, ProjPoint):
        point = ProjPoint(point, field)
    if not pair.contains_point(point):
        raise ValueError(f"{point} is not on E")
    n = pres.n
    rows = []
    for a in pair.pairings:
        row = {}
        for v in range(n):
            val = field.zero
            for u in range(n):
                if a[u][v]:
                    val = val + point.coords[u] * a[u][v]
            if val:
                row[v] = val
        rows.append(row)
    basis = nullspace(rows, n, field)
    if len(basis) != 1:
        raise RuntimeError(
            f"nullspace at {point} has dimension {len(basis)}, not 1: "
            "(G1) certification breach")
    vec = basis[0]
    return ProjPoint([vec.get(i, field.zero) for i in range(n)], field)


def vr_membership(presentation, p, q):
    """(p, q) satisfies every relation's bilinear form."""
    field = presentation.field
    if isinstance(p, ProjPoint):
        p = p.coords
    if isinstance(q, ProjPoint):
        q = q.coords
    p = [field(c) for c in p]
    q = [field(c) for c in q]
    n = presentation.n
    for a in presentation.relation_matrices():
        total = field.zero
        for u in range(n):
            if not p[u]:
                continue
            for v in range(n):
                if a[u][v] and q[v]:
                    total = total + p[u] * a[u][v] * q[v]
        if total:
            return False
    return True


@dataclass
class DegreeEvidence:
    """Evidence for one degree of the point-exactness check."""

    degree: int
    rho: int
    shape: tuple
    upper_ok: bool
    upper_failures: list = field(default_factory=list)
    lower_ok: bool = True
    lower_vacuous: bool = False
    witness: object = None
    # what decided the upper bound: "identity", "minors", "sample" (a
    # witness) or "empty" (rho < 0); not serialized
    upper_by: str = None
    # what decided the lower bound: "vacuous" (rho <= 0), "span" (the
    # first rho-minors span every form of degree rho), "minors" (the
    # emptiness test with every rho-minor) or "sample" (a witness); not
    # serialized
    lower_by: str = None

    @property
    def ok(self):
        return self.upper_ok and self.lower_ok


@dataclass
class PointExactReport:
    side: str
    max_degree: int
    variety: PointVarietyIdeal
    evidence: list = field(default_factory=list)

    @property
    def ok(self):
        return all(ev.ok for ev in self.evidence)

    def failed_degrees(self):
        return [ev.degree for ev in self.evidence if not ev.ok]


# Coordinate vectors one scan for small points may visit.  Sampling only
# pre-filters or finds witnesses, so a cut scan changes no verdict.
POINT_BUDGET = 4096


def _small_box(n, radius):
    """At most POINT_BUDGET nonzero vectors of the box [-radius, radius]^n,
    the sparsest first, returned in product order; a box within the budget
    is returned whole."""
    nonzero = [v for v in range(-radius, radius + 1) if v]

    def by_support():
        for size in range(1, n + 1):
            for support in combinations(range(n), size):
                for vals in product(nonzero, repeat=size):
                    coords = [0] * n
                    for i, v in zip(support, vals):
                        coords[i] = v
                    yield tuple(coords)

    return sorted(islice(by_support(), POINT_BUDGET))


def _small_points_on(ideal, ring, radius=1):
    """Rational points with small coordinates on a projective variety,
    among the vectors of ``_small_box``."""
    found = []
    seen = set()
    for coords in _small_box(ring.nvars, radius):
        if all(not g.evaluate([ring.field(c) for c in coords])
               for g in ideal.gens):
            pt = ProjPoint(coords, ring.field)
            if pt.coords not in seen:
                seen.add(pt.coords)
                found.append(pt)
    return found


def _upper_by_minors(tester, mat, rho):
    """The first (rho + 1)-minor of ``mat`` outside the radical of the
    tester's ideal, or None when every one lies in it."""
    for minor in mat.minors(rho + 1):
        if not tester.contains(minor):
            return minor
    return None


def _product_in_relations(presentation, first, second):
    """Every entry of ``first``·``second``, read as the bilinear form
    sum_k first[l][k](x) * second[k][j](y), lies in the span of the
    relation forms: the space R of ``rel_rows`` (``relation_matrices()``
    flattened to n^2 vectors) contains each."""
    n = presentation.n
    space = presentation._rel_space
    for frow in first.rows:
        for j in range(second.shape[1]):
            vec = {}
            for a, brow in zip(frow, second.rows):
                add_scaled(vec, {u * n + v: c * w
                                 for u, c in enumerate(a) if c
                                 for v, w in enumerate(brow[j]) if w})
            if not space.contains(vec):
                return False
    return True


def check_point_exact(presentation, side, max_degree, resolutions=None,
                      sample_prefilter=False, seed=None):
    """Decide rank (d_i)_p = rho_i for all p on the point variety, for
    1 <= i <= max_degree + 1.

    Lower bound: the variety meets the rho_i-minor locus in the empty set
    (vacuous when rho_i = 0).  ``projective_empty`` decides it on the
    variety ideal plus ``spanning_minors(rho_i)``, the first rho_i-minors
    whose span is every form of degree rho_i: then the ideal contains every
    monomial of that degree and is empty with no Groebner basis
    (``lower_by`` "span").  When no prefix spans, every rho_i-minor goes to
    Buchberger ("minors").  A prefix lies in the ideal of all the minors,
    so the verdict is the one all of them give.

    Upper bound at degree i >= 2: the twisted composite identity below,
    when it applies; otherwise (no (G1), a failed span check, an
    undecided lower bound at degree i - 1) every (rho_i + 1)-minor lies
    in the radical of the variety ideal.  Both
    decide rank <= rho_i at every point of E over the algebraic closure.
    When ``sample_prefilter`` is set, small rational points are scanned
    first; a rank mismatch there is a conclusive negative with witness.
    ``seed`` only shuffles the scan order, never a verdict.

    The identity.  Let a^k be ``relation_matrices()``, f_k(x, y) =
    sum a^k_uv x_u y_v, and V(R) their common zeros in P x P.  The columns
    of the right M_2 are (f(e_u, y))_u and the rows of the left M_2 are
    (f(x, e_v))_v, for f running through a basis of R, so the right
    variety is pr_2 V(R) and the left one pr_1 V(R).  When ``check_g1`` holds they are one E (equal
    radicals), and both M_2's have rank n - 1 at every point of E.  So
    for p in E the nullvector sigma(p) of the rows f_k(p, .)
    (``sigma_at``) is the only q with (p, q) in V(R), and it lies in
    pr_2 V(R) = E; for q in E the rank n - 1 of the right M_2(q) gives
    exactly one p with (p, q) in V(R), which lies in pr_1 V(R) = E and has
    sigma(p) = q.  Thus sigma is a bijection of E over the algebraic
    closure.

    Let M_i be this side's matrices, s_i the ranks of the free modules,
    and C = M_{i-1}·M_i on the right (s_{i-2} x s_i) and M_i·M_{i-1} on
    the left (s_i x s_{i-2}), each entry read as a bilinear form with x
    from the first factor and y from the second.  When every entry lies
    in the span of the f_k (checked exactly, ``_product_in_relations``),
    C(p, sigma(p)) = 0 for p in E.  With rho_i = s_{i-1} - rho_{i-1} and
    the lower bound rank M_{i-1} >= rho_{i-1} decided on E at degree
    i - 1:
    - right: M_{i-1}(p)·M_i(sigma(p)) = 0, so rank M_i(sigma(p)) <=
      s_{i-1} - rank M_{i-1}(p) <= rho_i, and as sigma maps E onto E this
      bounds M_i on all of E;
    - left: M_i(p)·M_{i-1}(sigma(p)) = 0, so rank M_i(p) <= s_{i-1} -
      rank M_{i-1}(sigma(p)) <= rho_i, which needs only sigma(E) in E.
    For (E, sigma) see M. Artin, J. Tate, M. Van den Bergh, *Some algebras
    associated to automorphisms of elliptic curves* (1990).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if side == "both":
        right = check_point_exact(presentation, "right", max_degree,
                                  resolutions, sample_prefilter, seed)
        left = check_point_exact(presentation, "left", max_degree,
                                 resolutions, sample_prefilter, seed)
        return right, left
    res = _resolution(presentation, side, max_degree + 1, resolutions)
    variety = point_variety(presentation, side, resolutions)
    ring = geometry_ring(presentation)
    report = PointExactReport(side=side, max_degree=max_degree,
                              variety=variety)
    ranks = [res.rank(i) for i in range(max_degree + 2)]
    tester = RadicalTester(variety.ideal)
    sample = (_small_points_on(variety.ideal, ring)
              if sample_prefilter else [])
    if sample and seed is not None:
        import random as _random
        _random.Random(seed).shuffle(sample)
    g1 = None            # check_g1 holds; decided when first needed
    prev = None          # M_{i-1} when its lower bound was decided true
    for i in range(1, max_degree + 2):
        rho = 0
        for j in range(1, i + 1):
            rho += ranks[i - j] if j % 2 == 1 else -ranks[i - j]
        mat = res.geometric_matrix(i, ring)
        ev = DegreeEvidence(degree=i, rho=rho, shape=mat.shape,
                            upper_ok=True)
        report.evidence.append(ev)
        if rho < 0:
            # no matrix has negative rank: only an empty variety survives
            ev.upper_ok = projective_empty(variety.ideal)
            ev.upper_by = "empty"
            ev.lower_vacuous = True
            ev.lower_by = "vacuous"
            prev = None
            continue
        for pt in sample:
            rank = mat.rank_at(pt)
            if rank != rho:
                ev.witness = pt
                ev.upper_by = ev.lower_by = "sample"
                if rank > rho:
                    ev.upper_ok = False
                else:
                    ev.lower_ok = False
                break
        if ev.witness is not None:
            prev = None
            continue
        if prev is not None and g1 is None:
            g1 = check_g1(presentation, resolutions) is not None
        if prev is not None and g1 and _product_in_relations(
                presentation, *((prev, mat) if side == "right"
                                else (mat, prev))):
            ev.upper_by = "identity"
        else:
            ev.upper_by = "minors"
            failure = _upper_by_minors(tester, mat, rho)
            if failure is not None:
                ev.upper_ok = False
                ev.upper_failures.append(failure)
        if rho == 0:
            ev.lower_vacuous = True
            ev.lower_by = "vacuous"
        else:
            ev.lower_by = "span" if mat.minors_span(rho) else "minors"
            ev.lower_ok = _rank_exactly_one_less(variety, mat, rho)
        prev = mat if ev.lower_ok else None
    return report


def pointwise_complex_exact(presentation, pair, point, length,
                            resolutions=None):
    """Exactness of the scalar complex with d_i evaluated along the sigma
    orbit of the point (rank bookkeeping, exact arithmetic)."""
    pres = presentation
    field = pres.field
    if not isinstance(point, ProjPoint):
        point = ProjPoint(point, field)
    if not pair.contains_point(point):
        raise ValueError(f"{point} is not on E")
    res = _resolution(pres, "right", length, resolutions)
    ring = geometry_ring(pres)
    orbit = [point]
    for _ in range(length - 1):
        orbit.append(sigma_at(pair, orbit[-1]))
    ranks_scalar = []
    for i in range(1, length + 1):
        mat = res.geometric_matrix(i, ring)
        if mat.shape[1] == 0:
            ranks_scalar.append(0)
            continue
        ranks_scalar.append(exact_rank(mat.eval_at(orbit[i - 1]), field))
    if ranks_scalar[0] != 1:
        return False
    for i in range(1, length):
        s_i = res.rank(i)
        if ranks_scalar[i - 1] + ranks_scalar[i] != s_i:
            return False
    return True
