"""Point-variety geometry of quadratic algebras.

The right/left point varieties are the vanishing loci of the n-minors of the
second differentials; semi-standardness compares them, the (G1) condition
adds point-exactness at degree 1 and produces the geometric pair (E, sigma)
with sigma evaluated pointwise through the relation pairing.  Point-exactness
at higher degrees is decided ideal-theoretically: minors of the i-th
differential against the radical of the variety ideal (rank upper bound) and
projective emptiness of the dropped-rank locus (lower bound).  Sampling is
only ever a pre-filter whose negative answers are conclusive witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, product

from .exactlinalg import exact_rank, nullspace
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


@dataclass
class PointVarietyIdeal:
    """Vanishing locus data of one side's second differential."""

    side: str
    ideal: Ideal
    matrix: LinearFormMatrix
    n: int
    r: int

    def contains_point(self, point):
        if isinstance(point, ProjPoint):
            point = point.coords
        return all(not g.evaluate(point) for g in self.ideal.gens)


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
        if isinstance(point, ProjPoint):
            point = point.coords
        return all(not g.evaluate(point) for g in self.ideal.gens)


def _rank_exactly_one_less(variety, mat, n_minus):
    """All points of the variety have rank >= n_minus on ``mat``: the locus
    where the n_minus-minors also vanish must be projectively empty."""
    if n_minus <= 0:
        return True
    lower = mat.minor_ideal(n_minus)
    if not lower.gens:
        # rank can never reach n_minus; vacuously fine only on empty loci
        return projective_empty(variety.ideal)
    return projective_empty(variety.ideal + lower)


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


def check_point_exact(presentation, side, max_degree, resolutions=None,
                      sample_prefilter=False, seed=None):
    """Decide rank (d_i)_p = rho_i for all p on the point variety, for
    1 <= i <= max_degree + 1.

    Upper bound: every (rho_i + 1)-minor lies in the radical of the variety
    ideal.  Lower bound: the variety meets the rho_i-minor locus in the
    empty set (vacuous when rho_i = 0).  When ``sample_prefilter`` is set,
    small rational points are scanned first; a rank mismatch there is a
    conclusive negative with witness.  ``seed`` only shuffles the scan
    order, never a verdict.
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
    for i in range(1, max_degree + 2):
        rho = 0
        for j in range(1, i + 1):
            rho += ranks[i - j] if j % 2 == 1 else -ranks[i - j]
        mat = res.geometric_matrix(i, ring)
        ev = DegreeEvidence(degree=i, rho=rho, shape=mat.shape,
                            upper_ok=True)
        if rho < 0:
            # no matrix has negative rank: only an empty variety survives
            ev.upper_ok = projective_empty(variety.ideal)
            ev.lower_ok = True
            ev.lower_vacuous = True
            report.evidence.append(ev)
            continue
        for pt in sample:
            if mat.rank_at(pt) != rho:
                ev.witness = pt
                if exact_rank(mat.eval_at(pt), ring.field) > rho:
                    ev.upper_ok = False
                else:
                    ev.lower_ok = False
                break
        if ev.witness is None:
            for minor in mat.minors(rho + 1):
                if not tester.contains(minor):
                    ev.upper_ok = False
                    ev.upper_failures.append(minor)
                    break
            if rho == 0:
                ev.lower_ok = True
                ev.lower_vacuous = True
            else:
                ev.lower_ok = _rank_exactly_one_less(variety, mat, rho)
        report.evidence.append(ev)
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
