import random
from fractions import Fraction
from math import comb

import pytest

from quadralg.algebra import GradedAutomorphism, QuadraticPresentation
from quadralg.exactlinalg import (MODULAR_PRIMES, ResidueColumns,
                                  exact_rank, residue)
from quadralg.resolutions import (FreeComplex, FreeModuleMap,
                                  NonlinearKernelError, block_map,
                                  diagonal_map, geometry_ring,
                                  linear_resolution, scalar_chain_isomorphism,
                                  twist_complex, verify_complex, zero_map)
from quadralg.scalars import GF, QQ
from conftest import (quotient_resolutions, reference_degree_columns,
                      sum_of_squares)


def test_quantum_plane_resolution_matches_display(quantum_plane):
    """0 -> A(-2) -> A(-1)^2 -> A with d_2 = (y, -2x)^t up to scalar
    chain isomorphism."""
    L = linear_resolution(quantum_plane, "right", 3)
    assert L.ranks() == [1, 2, 1, 0]
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    displayed = FreeComplex(quantum_plane, "right", [
        FreeModuleMap(quantum_plane, (0,), (1, 1), [[x, y]]),
        FreeModuleMap(quantum_plane, (1, 1), (2,), [[y], [x.scale(-2)]]),
        FreeModuleMap(quantum_plane, (2,), (), [[]]),
    ])
    phis = scalar_chain_isomorphism(displayed, L)
    assert phis is not None


def test_quantum_plane_left_resolution(quantum_plane):
    Lq = linear_resolution(quantum_plane, "left", 3)
    assert Lq.ranks() == [1, 2, 1, 0]
    # h_2 = (-lambda y, x) with lambda = 2, up to scalar
    h2 = Lq.geometric_matrix(2)
    assert h2.shape == (1, 2)
    e0 = h2.entry_poly(0, 0)
    e1 = h2.entry_poly(0, 1)
    ring = e0.ring
    x, y = ring.gens()
    scaled = [(e0, -2 * y), (e1, x)]
    ratios = set()
    for mine, want in scaled:
        for exps, c in want.terms.items():
            ratios.add(QQ.div(c, mine.terms[exps]))
    assert len(ratios) == 1


def test_skew_resolution_ranks_are_binomials():
    q = [[1, 2, 3], [Fraction(1, 2), 1, 5],
         [Fraction(1, 3), Fraction(1, 5), 1]]
    pres = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3"], q)
    L = linear_resolution(pres, "right", 5)
    assert L.ranks() == [comb(3, i) for i in range(6)]
    assert L.meta["verification"].is_exact()


def test_sec5_resolution_ranks_and_left_shape(sec5_algebra):
    P = linear_resolution(sec5_algebra, "right", 4)
    assert P.ranks()[:4] == [1, 3, 3, 1]
    assert P.meta["verification"].is_exact()
    # h_2 is column-equivalent to the first three rows of the displayed N:
    # build the displayed left data over the opposite algebra and compare
    op = sec5_algebra.opposite()
    gens = [op.generator(i) for i in range(3)]
    x, y, z = gens

    def lin(cx, cy, cz):
        return (x.scale(cx) + y.scale(cy) + z.scale(cz)) \
            if (cx or cy or cz) else op.zero_element(1)

    # N's first three rows, transposed, give d_2 over the opposite algebra
    n_rows = [[lin(0, 1, 0), lin(1, 0, 0), lin(0, 0, 2)],
              [lin(2, 0, 0), lin(0, 0, 1), lin(0, 1, 0)],
              [lin(0, 0, 1), lin(0, 2, 0), lin(1, 0, 0)]]
    displayed = FreeComplex(op, "right", [
        FreeModuleMap(op, (0,), (1, 1, 1), [gens]),
        FreeModuleMap(op, (1, 1, 1), (2, 2, 2),
                      [[n_rows[j][k] for j in range(3)] for k in range(3)]),
    ])
    assert displayed.maps[0].compose(displayed.maps[1]).is_zero()
    Q = linear_resolution(sec5_algebra, "left", 2)
    phis = scalar_chain_isomorphism(displayed, Q.truncated(2))
    assert phis is not None


def test_commutative_koszul_complex_verifies():
    pres = QuadraticPresentation.commutative(QQ, ["x", "y"])
    L = linear_resolution(pres, "right", 3)
    rep = verify_complex(L, 5)
    assert rep.is_exact()
    assert rep.minimal


def test_corrupted_differential_detected():
    pres = QuadraticPresentation.commutative(QQ, ["x", "y"])
    L = linear_resolution(pres, "right", 2)
    d2 = L.maps[1]
    bad_entries = [list(row) for row in d2.entries]
    bad_entries[0][0] = bad_entries[0][0] + pres.generator(0)
    bad = FreeComplex(pres, "right", [
        L.maps[0],
        FreeModuleMap(pres, d2.target_shifts, d2.source_shifts, bad_entries),
    ])
    rep = verify_complex(bad, 4)
    assert not rep.all_composites_zero
    assert rep.first_failure() == ("composite", 1)


def test_nonlinear_kernel_raises():
    # k<x,y>/(x^2 + y^2, yz...) needs 3 vars; use the frozen negative
    # control, whose degree-3 syzygies vanish while homology persists
    pres = QuadraticPresentation.create(QQ, ["x", "y", "z"], [
        {(0, 0): 1, (1, 1): 1},
        {(1, 2): 1, (2, 0): -2},
        {(0, 2): 1, (2, 1): 1},
    ])
    with pytest.raises(NonlinearKernelError):
        linear_resolution(pres, "right", 4, check="raise")
    reported = linear_resolution(pres, "right", 4, check="report")
    assert not reported.meta["verification"].is_exact()


def test_block_map_assembles_a_grid_and_refuses_misaligned_blocks(
        quantum_plane):
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    d1 = FreeModuleMap(quantum_plane, (0,), (1, 1), [[x, y]])
    diag = diagonal_map(quantum_plane, (1, 1), [x, y.scale(3)])
    assert diag.source_shifts == (2, 2)
    assert diag.entries[0][0] == x and not diag.entries[0][1]
    grid = [[d1.shifted(1), zero_map(quantum_plane, (1,), (2,))],
            [diag, zero_map(quantum_plane, (1, 1), (2,))]]
    whole = block_map(quantum_plane, grid)
    assert whole.target_shifts == (1, 1, 1)
    assert whole.source_shifts == (2, 2, 2)
    assert whole.entries[0][:2] == (x, y)
    assert whole.entries[2][1] == y.scale(3)
    with pytest.raises(ValueError, match="line up"):
        block_map(quantum_plane, [[d1], [diag]])


def test_twist_complex_properties(quantum_plane):
    L = linear_resolution(quantum_plane, "right", 3)
    tau = GradedAutomorphism(quantum_plane, [[QQ(1), QQ(0)], [QQ(0), QQ(3)]])
    ident = GradedAutomorphism.identity(quantum_plane)
    assert twist_complex(L, ident).maps[1].entries == L.maps[1].entries
    twice = twist_complex(twist_complex(L, tau), tau)
    squared = twist_complex(L, tau.compose(tau))
    for a, b in zip(twice.maps, squared.maps):
        assert a.entries == b.entries
    # a twisted resolution is still a resolution
    rep = verify_complex(twist_complex(L, tau), 4)
    assert rep.is_exact()
    # rank at random points is twist-invariant
    rng = random.Random(2)
    ring = geometry_ring(quantum_plane)
    tw = twist_complex(L, tau)
    for _ in range(6):
        p = [QQ(rng.randint(-3, 3)) for _ in range(2)]
        if not any(p):
            continue
        for i in (1, 2):
            a = L.geometric_matrix(i, ring).eval_at(p)
            b = tw.geometric_matrix(i, ring).eval_at(p)
            assert exact_rank(a) == exact_rank(b)


def test_scalar_chain_iso_rejects_non_isomorphic(quantum_plane):
    L = linear_resolution(quantum_plane, "right", 3)
    other = QuadraticPresentation.create(QQ, ["x", "y"],
                                         [{(0, 1): 1, (1, 0): -3}])
    M = linear_resolution(other, "right", 3)
    assert scalar_chain_isomorphism(L, M) is None  # different algebras


def test_scalar_chain_iso_rejects_an_inconsistent_lift(quantum_plane):
    """phi_1 d_2 = (y, -x)^t is not d'_2 phi_2 for any scalar phi_2:
    d'_2 of the resolution is a multiple of (y, -2x)^t."""
    L = linear_resolution(quantum_plane, "right", 2)
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    wrong = FreeComplex(quantum_plane, "right", [
        FreeModuleMap(quantum_plane, (0,), (1, 1), [[x, y]]),
        FreeModuleMap(quantum_plane, (1, 1), (2,), [[y], [-x]]),
    ])
    assert scalar_chain_isomorphism(wrong, L) is None


def test_scalar_chain_iso_rejects_a_singular_phi(quantum_plane):
    """With d_2 the zero column on both sides the lift of 0 is phi_2 = 0,
    which is not invertible."""
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)

    def complex_with_zero_d2():
        return FreeComplex(quantum_plane, "right", [
            FreeModuleMap(quantum_plane, (0,), (1, 1), [[x, y]]),
            zero_map(quantum_plane, (1, 1), (2,)),
        ])

    assert scalar_chain_isomorphism(complex_with_zero_d2(),
                                    complex_with_zero_d2()) is None


def test_scalar_chain_iso_leaves_mixed_shifts_undecided(quantum_plane):
    """A module with generators of two shifts is outside the function's
    scope: None, even for a complex against itself, while the same
    complex with one shift per degree maps to itself by the identity."""
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    mixed = FreeComplex(quantum_plane, "right", [
        FreeModuleMap(quantum_plane, (0,), (1, 2), [[x, x * y]])])
    assert scalar_chain_isomorphism(mixed, mixed) is None
    single = FreeComplex(quantum_plane, "right", [
        FreeModuleMap(quantum_plane, (0,), (1, 1), [[x, y]])])
    assert scalar_chain_isomorphism(single, single) == [
        [[QQ.one]], [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]]


def test_scalar_chain_iso_starts_from_the_identity_of_f0(quantum_plane):
    """phi_0 is the identity of rank F_0: d_1 = (x, y)^t, with two target
    generators, maps to itself by the identities."""
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    column = FreeComplex(quantum_plane, "right", [
        FreeModuleMap(quantum_plane, (0, 0), (1,), [[x], [y]])])
    assert scalar_chain_isomorphism(column, column) == [
        [[1, 0], [0, 1]], [[1]]]


# ---- degree_columns against the per-basis-product reference -------------

def assert_columns_match(fmap, top):
    """Columns and row count agree in every internal degree whose
    products stay within A_top, and the residue columns are those of the
    field-scalar ones: their residues at both first working primes over
    QQ, also when a third of the column indices are skipped.  Over GF(p)
    there is one domain: the columns are ``ResidueColumns`` at the
    characteristic, ints in [1, p) equal to the ``.val``s of the
    reference's field scalars, and the residue columns are the same."""
    field = fmap.presentation.field
    low = min(fmap.target_shifts, default=0)
    for e in range(0, top + low + 1):
        columns, nrows = fmap.degree_columns(e)
        reference, ref_rows = reference_degree_columns(fmap, e)
        assert nrows == ref_rows
        if field == QQ:
            assert columns == reference
            primes = MODULAR_PRIMES[:2]
            wanted = [[{i: r for i, v in col.items() if (r := residue(v, p))}
                       for col in columns] for p in primes]
        else:
            p = field.characteristic
            assert isinstance(columns, ResidueColumns) and columns.prime == p
            assert list(columns) == [{i: v.val for i, v in col.items()}
                                     for col in reference]
            assert all(type(v) is int and 0 < v < p
                       for col in columns for v in col.values())
            primes = (p,)
            wanted = [list(columns)]
        for p, want in zip(primes, wanted):
            got, got_rows = fmap.residue_columns(e, p)
            assert got.prime == p and got_rows == nrows
            assert list(got) == want
            # the chain's restricted columns: every index in skip left out
            skip = set(range(e % 3, len(columns), 3))
            kept, kept_rows = fmap.residue_columns(e, p, skip)
            assert kept.prime == p and kept_rows == nrows
            assert list(kept) == [col for c, col in enumerate(got)
                                  if c not in skip]


@pytest.mark.parametrize("name", ["quantum_plane", "sec5_algebra",
                                  "case2_algebra", "case3_algebra"])
def test_degree_columns_of_acceptance_resolutions(name, request):
    pres = request.getfixturevalue(name)
    for side in ("right", "left"):
        L = linear_resolution(pres, side, 4, check="report")
        for d in L.maps:
            assert_columns_match(d, 6)


def test_degree_columns_of_a_shamash_tower(case3_algebra):
    """The quotient resolutions and every homotopy of the towers over the
    +-1-skew quadric."""
    f = sum_of_squares(case3_algebra)
    complexes, towers = quotient_resolutions(case3_algebra, f, length=4,
                                             internal_cap=6)
    for side in ("right", "left"):
        for d in complexes[side].maps:
            assert_columns_match(d, 6)
        for c in towers[side].cmaps.values():
            assert_columns_match(c, 6)


def mixed_degree_map(pres):
    """Entries of degrees 0 to 3 and zero entries, so that scalar entries
    and the multi-letter left walk are exercised."""
    rng = random.Random(5)
    x = [pres.generator(i) for i in range(pres.n)]

    def entry(degree):
        out = pres.zero_element(degree)
        for _ in range(3):
            term = pres.one()
            for _ in range(degree):
                term = term * x[rng.randrange(pres.n)]
            out = out + term.scale(rng.choice([1, -2, Fraction(1, 3)]))
        return out

    return FreeModuleMap(pres, (0, 1, 2), (2, 3), [
        [entry(2), entry(3)],
        [entry(1), pres.zero_element(2)],
        [entry(0), entry(1)],
    ])


def test_degree_columns_of_a_mixed_degree_map(sec5_algebra, case3_algebra):
    for pres in (sec5_algebra, case3_algebra):
        fmap = mixed_degree_map(pres)
        assert any(e.degree == 3 for row in fmap.entries for e in row)
        assert_columns_match(fmap, 6)


@pytest.mark.parametrize("p", [7, 32003])
def test_degree_columns_over_a_prime_field(p):
    """The +-1-skew quadric over GF(p): a mixed-degree map, and every map
    of its quotient resolutions and of their towers."""
    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    pres = QuadraticPresentation.skew(GF(p), ["x1", "x2", "x3", "x4"], q)
    assert_columns_match(mixed_degree_map(pres), 6)
    complexes, towers = quotient_resolutions(pres, sum_of_squares(pres),
                                             length=3, internal_cap=5)
    for side in ("right", "left"):
        assert complexes[side].meta["verification"].is_exact()
        for d in complexes[side].maps:
            assert_columns_match(d, 5)
        for c in towers[side].cmaps.values():
            assert_columns_match(c, 5)


def test_degree_columns_do_not_depend_on_call_history():
    """On a fresh presentation the degree-7 columns come out the same
    whether they are built first or after every lower degree."""
    q = [[1, -1, 1], [-1, 1, -1], [1, -1, 1]]
    first, after = (QuadraticPresentation.skew(QQ, ["h0", "h1", "h2"], q,
                                               degree_cap=cap)
                    for cap in (11, 12))
    maps = []
    for pres in (first, after):
        assert not pres._components
        x = [pres.generator(i) for i in range(3)]
        maps.append(FreeModuleMap(pres, (0, 1), (1, 2), [
            [x[0], x[1] * x[2]], [pres.one().scale(3), x[0] - x[2]]]))
    direct = maps[0].degree_columns(7)
    for e in range(7):
        maps[1].degree_columns(e)
    assert direct == maps[1].degree_columns(7)
    assert direct == reference_degree_columns(maps[0], 7)
