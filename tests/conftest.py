import pytest
from hypothesis import settings

from quadralg.scalars import QQ
from quadralg.algebra import (AlgebraElement, QuadraticPresentation,
                              opposite_element)
from quadralg.resolutions import FreeComplex, block_offsets, linear_resolution
from quadralg.shamash import shamash

# One fixed example sequence per test, with no timing verdicts: the suite
# gives the same result on every run and every host.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def quantum_plane():
    """k<x,y>/(xy - 2yx): Example-style 2-dim quantum plane, lambda = 2."""
    return QuadraticPresentation.create(QQ, ["x", "y"],
                                        [{(0, 1): 1, (1, 0): -2}])


@pytest.fixture(scope="session")
def sec5_algebra():
    """3-dim quantum polynomial algebra with f1 = xy+yx+2z^2 etc."""
    return QuadraticPresentation.create(QQ, ["x", "y", "z"], [
        {(0, 1): 1, (1, 0): 1, (2, 2): 2},
        {(1, 2): 1, (2, 1): 1, (0, 0): 2},
        {(2, 0): 1, (0, 2): 1, (1, 1): 2},
    ])


@pytest.fixture(scope="session")
def sec5_quotient(sec5_algebra):
    x, y = sec5_algebra.generator(0), sec5_algebra.generator(1)
    return sec5_algebra.quotient(x * y)


@pytest.fixture(scope="session")
def case2_algebra():
    q = [[1, -1, -1, 1], [-1, 1, -1, -1], [-1, -1, 1, -1], [1, -1, -1, 1]]
    return QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"], q)


@pytest.fixture(scope="session")
def case3_algebra():
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    return QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"], q)


# not Koszul (homology of dim 11 at (2, 4)); t commutes with x, y and z
NON_KOSZUL = """vars x, y, z, t
rel -x^2 + 2*x*y - 2*x*z - 2*y^2 - 2*y*z - 2*z*x + 2*z*y - 2*z^2
rel x^2 - x*y + x*z - 2*y*x + 2*y^2 - y*z + z*x + z*y + 2*z^2
rel -x^2 - x*z - y*x + y^2 - 2*z*x + z*y + 2*z^2
rel -2*x^2 - x*y - 2*y*x + 2*y*z + z*x + 2*z*y - z^2
rel t*x - x*t
rel t*y - y*t
rel t*z - z*t
"""


def sum_of_squares(pres):
    total = None
    for i in range(pres.n):
        g = pres.generator(i)
        sq = g * g
        total = sq if total is None else total + sq
    return total


def right_walk_product(a, b):
    """Reference product a*b: every basis word of b walked letter by letter
    on the right through the step tables, read directly (no left tables,
    no ``ResidueTables.walk``)."""
    pres = a.presentation
    zero = pres.field.zero
    out = {}
    for i, c in b.coords.items():
        vec, k = dict(a.coords), a.degree
        for letter in pres.component(b.degree).words[i]:
            images = pres.component(k + 1).step[letter]
            nxt = {}
            for j, v in vec.items():
                img = images[j]
                for t, x in zip(img[::2], img[1::2]):
                    nxt[t] = nxt.get(t, zero) + v * x
            vec, k = nxt, k + 1
        for t, v in vec.items():
            out[t] = out.get(t, zero) + c * v
    return {t: v for t, v in out.items() if v}


def reference_degree_columns(fmap, e):
    """Reference ``FreeModuleMap.degree_columns``: every entry times every
    basis vector of its source block, as a ``right_walk_product``, one
    column per source generator j and basis word w, in that order."""
    pres = fmap.presentation
    row_offsets, total_rows = block_offsets(pres, fmap.target_shifts, e)
    columns = []
    for j, s in enumerate(fmap.source_shifts):
        d = e - s
        if d < 0:
            continue
        for w in range(pres.dim(d)):
            basis = AlgebraElement(pres, d, {w: pres.field.one})
            col = {}
            for k in range(fmap.nrows):
                ent = fmap.entries[k][j]
                if ent:
                    for t, c in right_walk_product(ent, basis).items():
                        col[row_offsets[k] + t] = c
            columns.append(col)
    return columns, total_rows


def quotient_resolutions(pres, f, length=6, internal_cap=None):
    """Right and left quotient resolutions built through the homotopy tower."""
    P = linear_resolution(pres, "right", length)
    right, tower_r = shamash(pres, P, f, length=length,
                             internal_cap=internal_cap)
    op = pres.opposite()
    Pop = linear_resolution(op, "right", length)
    left_raw, tower_l = shamash(op, Pop, opposite_element(f), length=length,
                                internal_cap=internal_cap)
    left = FreeComplex(left_raw.presentation, "left", left_raw.maps,
                       left_raw.meta)
    return {"right": right, "left": left}, {"right": tower_r,
                                            "left": tower_l}


def vr_empty_oracle(pres):
    """Independent decision of V(R) = emptyset: every product p_i q_j lies
    in the radical of the bilinear-form ideal in doubled variables."""
    from quadralg.groebner import Ideal, radical_member
    from quadralg.polynomials import PolyRing
    n = pres.n
    ring = PolyRing(pres.field, [f"p{i}" for i in range(n)]
                    + [f"q{i}" for i in range(n)])
    gens = []
    for a in pres.relation_matrices():
        poly = ring.zero()
        for u in range(n):
            for v in range(n):
                if a[u][v]:
                    poly = poly + ring.var(u) * ring.var(n + v) * a[u][v]
        gens.append(poly)
    ideal = Ideal(ring, gens)
    return all(radical_member(ring.var(i) * ring.var(n + j), ideal)
               for i in range(n) for j in range(n))
