"""Cone extensions of skew polynomial resolutions and the canonical
resolution built by iterating them.

Adjoining a variable to a skew polynomial algebra extends the minimal
resolution by the mapping cone of the extension map for the new variable;
that map has a diagonal presentation x_{new} * diag(nonzero scalars) whose
scalars follow a two-branch recursion over the skew matrix.  Iterating from
k[x_1] yields the canonical resolution, whose differentials have monomial
entries c * x_j.
"""

from __future__ import annotations

from .algebra import QuadraticPresentation
from .resolutions import (FreeComplex, FreeModuleMap, block_map, diagonal_map,
                          zero_map)


def skew_matrix_of(presentation):
    """Recover the q-matrix when the presentation is skew, else None."""
    n = presentation.n
    field = presentation.field
    if presentation.r != n * (n - 1) // 2:
        return None
    q = [[field.one] * n for _ in range(n)]
    seen = set()
    for row in presentation.rel_rows:
        if len(row) > 2:
            return None
        cols = sorted(row)
        if len(cols) == 1:
            return None
        a, b = cols
        u1, v1 = divmod(a, n)
        u2, v2 = divmod(b, n)
        if (u1, v1) != (v2, u2) or u1 == v1:
            return None
        if row[a] != field.one:
            return None
        c = row[b]
        # row: x_{u1} x_{v1} - q_{u1 v1}^{-1} x_{v1} x_{u1} normalized monic
        q[u1][v1] = -field.inv(c)
        q[v1][u1] = -c
        seen.add((u1, v1))
    if len(seen) != presentation.r:
        return None
    return q


def extension_scalars(q_matrix, q_column):
    """Diagonal scalars of the extension map, one tuple per homological
    degree: the map in degree i is x_new * diag(scalars[i])."""
    n = len(q_column)
    if n == 0:
        raise ValueError("need at least one extension entry")
    if n == 1:
        return [(1,), (q_column[0],)]
    sub = [row[:n - 1] for row in q_matrix[:n - 1]]
    theta = extension_scalars(sub, q_column[:n - 1])
    q_last = q_column[n - 1]
    out = []
    for i in range(n + 1):
        left = tuple(q_last * s for s in theta[i - 1]) if i >= 1 else ()
        right = theta[i] if i <= n - 1 else ()
        out.append(left + right)
    return out


def cone_extension(cplx, q_column, new_name=None):
    """Extend a canonical skew resolution by one variable.

    ``cplx`` must resolve the trivial module over a skew polynomial algebra
    (canonical form); ``q_column`` lists the nonzero commutation scalars of
    the new variable against the old ones.  The result is the mapping cone
    with differentials [[-d_{i-1}, 0], [phi_{i-1}, d_i]] over the extended
    algebra, with ranks C(n+1, i).
    """
    pres = cplx.presentation
    field = pres.field
    n = pres.n
    q_matrix = skew_matrix_of(pres)
    if q_matrix is None:
        raise ValueError("complex is not over a skew polynomial algebra")
    q_column = [field(c) for c in q_column]
    if len(q_column) != n:
        raise ValueError("extension column has wrong length")
    if any(not c for c in q_column):
        raise ValueError("extension entries must be nonzero")
    if new_name is None:
        new_name = f"x{n + 1}"
        while new_name in pres.names:
            new_name += "_"
    big_q = [[q_matrix[i][j] for j in range(n)] + [q_column[i]]
             for i in range(n)]
    big_q.append([field.inv(q_column[j]) for j in range(n)] + [field.one])
    big = QuadraticPresentation.skew(field, pres.names + (new_name,), big_q,
                                     pres.degree_cap)
    inclusion = [[big.field.one if t == u else big.field.zero
                  for t in range(big.n)] for u in range(n)]
    xnew = big.generator(big.n - 1)
    scalars = extension_scalars(q_matrix, q_column)
    shifts = cplx.shifts
    length = max(len(cplx.maps), n) + 1
    d = [cplx.differential(i).converted(big, inclusion)
         for i in range(length + 1)]
    maps = []
    for i in range(1, length + 1):
        # phi_{i-1} = x_new * diag(scalars[i-1]): P_{i-1}(-1) -> P_{i-1}
        phi = diagonal_map(big, shifts(i - 1),
                           [xnew.scale(c) for c in
                            (scalars[i - 1] if i <= len(scalars) else ())])
        maps.append(block_map(big, [
            [d[i - 1].negate().shifted(1),
             zero_map(big, [s + 1 for s in shifts(i - 2)], shifts(i))],
            [phi, d[i]]]))
    out = FreeComplex(big, cplx.side, maps, {"skew_canonical": True})
    for i in range(len(maps) - 1):
        if not maps[i].composes_to_zero(maps[i + 1]):
            raise AssertionError(
                "cone extension produced a nonzero composite; the input was "
                "not a canonical skew resolution")
    return out


def canonical_skew_resolution(presentation, length=None):
    """The iterated cone extension resolving the trivial module over a skew
    polynomial algebra; differentials have monomial entries."""
    q = skew_matrix_of(presentation)
    if q is None:
        raise ValueError("presentation is not a skew polynomial algebra")
    n = presentation.n
    if n == 0:
        raise ValueError("need at least one generator")
    field = presentation.field
    base = QuadraticPresentation.skew(field, presentation.names[:1], [[1]],
                                      presentation.degree_cap)
    d1 = FreeModuleMap(base, (0,), (1,), [[base.generator(0)]])
    cplx = FreeComplex(base, "right", [d1], {"skew_canonical": True})
    for j in range(1, n):
        col = [q[i][j] for i in range(j)]
        cplx = cone_extension(cplx, col, new_name=presentation.names[j])
    if cplx.presentation is not presentation:
        raise AssertionError("iterated extension drifted off the input")
    if length is not None:
        if length <= cplx.length:
            cplx = cplx.truncated(length)
        else:
            maps = list(cplx.maps)
            while len(maps) < length:
                maps.append(FreeModuleMap(presentation,
                                          maps[-1].source_shifts, (),
                                          [[] for _ in
                                           maps[-1].source_shifts]))
            cplx = FreeComplex(presentation, "right", maps, cplx.meta)
    return cplx
