import gc
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, find, given, settings, strategies as st

from quadralg import algebra
from quadralg.algebra import (AlgebraElement, DegreeCapExceeded,
                              GradedAutomorphism, NotRegularError,
                              QuadraticPresentation, _rewrite_component,
                              _rref_component, convert_element, is_normal,
                              is_regular_up_to, opposite_element,
                              span_normal)
from quadralg.parsing import parse_presentation_text
from quadralg.shamash import shamash
from quadralg.resolutions import linear_resolution
from quadralg.exactlinalg import (RowSpace, columns_to_rows, invert_matrix,
                                  mat_mul, rank_of_columns, solve_batch)
from quadralg.scalars import GF, QQ
from conftest import NON_KOSZUL, right_walk_product, sum_of_squares


def brute_component_dim(pres, d):
    """Independent oracle: dim of V^(x)d modulo sum_i V^i (x) R (x) V^(d-2-i),
    computed densely in the tensor space."""
    n = pres.n
    if d == 0:
        return 1
    if d == 1:
        return n
    space = RowSpace(pres.field)
    for i in range(d - 1):
        for left in product(range(n), repeat=i):
            for right in product(range(n), repeat=d - 2 - i):
                for rel in pres.rel_rows:
                    vec = {}
                    for col, c in rel.items():
                        u, v = divmod(col, n)
                        word = left + (u, v) + right
                        idx = 0
                        for letter in word:
                            idx = idx * n + letter
                        vec[idx] = vec.get(idx, pres.field.zero) + c
                    vec = {k: v for k, v in vec.items() if v}
                    if vec:
                        space.add(vec)
    return n ** d - space.rank


def test_component_dims_match_brute_force(quantum_plane, sec5_algebra):
    for d in range(5):
        assert quantum_plane.dim(d) == brute_component_dim(quantum_plane, d)
    for d in range(4):
        assert sec5_algebra.dim(d) == brute_component_dim(sec5_algebra, d)


def test_component_dims_random_algebra():
    rng = random.Random(4)
    words = [(u, v) for u in range(3) for v in range(3)]
    for _ in range(5):
        rels = []
        for w in rng.sample(words, 2):
            other = rng.choice(words)
            rel = {w: QQ(1)}
            if other != w:
                rel[other] = QQ(rng.randint(-2, 2))
            rels.append({k: v for k, v in rel.items() if v})
        pres = QuadraticPresentation.create(QQ, ["x", "y", "z"], rels)
        for d in range(4):
            assert pres.dim(d) == brute_component_dim(pres, d)


def test_basic_dims(quantum_plane):
    assert quantum_plane.dim(0) == 1
    assert quantum_plane.dim(1) == 2
    assert quantum_plane.dim(2) == 3  # 4 - 1


def test_skew_hilbert_series():
    q = [[1, 2, 3], [Fraction(1, 2), 1, 5],
         [Fraction(1, 3), Fraction(1, 5), 1]]
    pres = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3"], q)
    for d in range(7):
        assert pres.dim(d) == comb(3 + d - 1, d)


@pytest.mark.parametrize("q", [[[1] * 3] * 3, [[1], [1]], [[1, 1], [1]]])
def test_skew_matrix_must_match_the_generators(q):
    with pytest.raises(ValueError, match="2 x 2"):
        QuadraticPresentation.skew(QQ, ["x", "y"], q)


def test_degree_cap_enforced():
    pres = QuadraticPresentation.commutative(QQ, ["capu", "capw"],
                                             degree_cap=4)
    pres.component(4)
    with pytest.raises(DegreeCapExceeded):
        pres.component(5)


def test_degree_cap_zero_is_a_cap_and_negative_is_refused():
    pres = QuadraticPresentation.commutative(QQ, ["x", "y"], degree_cap=0)
    assert pres.degree_cap == 0
    assert pres.dim(0) == 1
    with pytest.raises(DegreeCapExceeded):
        pres.dim(5)
    with pytest.raises(ValueError):
        QuadraticPresentation.commutative(QQ, ["x", "y"], degree_cap=-1)
    default = QuadraticPresentation.commutative(QQ, ["x", "y"])
    assert default.degree_cap == algebra.DEFAULT_DEGREE_CAP


def test_multiply_unit_and_relation(quantum_plane):
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    one = quantum_plane.one()
    assert one * x == x
    assert x * one == x
    # xy = 2yx as classes in A_2
    assert (x * y) == (y * x).scale(2)


def test_equal_zero_elements_hash_alike(quantum_plane):
    zeros = [quantum_plane.zero_element(d) for d in (0, 1, 2)]
    assert zeros[1] == zeros[2]
    assert len(set(zeros)) == 1


def test_multiply_commutative_symmetry():
    pres = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    a = pres.generator(0) * pres.generator(1) + pres.generator(2) * pres.generator(2)
    b = pres.generator(1) + pres.generator(2)
    assert a * b == b * a


def test_multiply_associative_random(sec5_algebra):
    rng = random.Random(17)
    gens = [sec5_algebra.generator(i) for i in range(3)]

    def random_element(degree):
        out = sec5_algebra.zero_element(degree)
        for _ in range(2):
            term = sec5_algebra.one()
            for _ in range(degree):
                term = term * gens[rng.randrange(3)]
            out = out + term.scale(rng.randint(-2, 2))
        return out

    for _ in range(6):
        a, b, c = (random_element(rng.randint(1, 2)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_is_regular_examples(quantum_plane, case3_algebra):
    kx = QuadraticPresentation.commutative(QQ, ["x"])
    assert is_regular_up_to(kx.generator(0), 6)
    x = quantum_plane.generator(0)
    assert is_regular_up_to(x, 4)
    f = sum_of_squares(case3_algebra)
    assert is_regular_up_to(f, 4)
    # x^2 in k<x,y>/(xy, yx) is normal and a zero divisor: the dimensions
    # decide, and sigma is not unique
    xy_yx = QuadraticPresentation.create(QQ, ["x", "y"],
                                         [{(0, 1): 1}, {(1, 0): 1}])
    x2 = xy_yx.generator(0) * xy_yx.generator(0)
    assert span_normal(x2)
    assert not is_regular_up_to(x2, 4)
    with pytest.raises(NotRegularError):
        is_normal(x2)
    with pytest.raises(ValueError):
        is_regular_up_to(quantum_plane.zero_element(1), 3)
    with pytest.raises(ValueError, match="degree"):
        is_regular_up_to(x, -3)


@st.composite
def normal_monomials(draw):
    """A generator or a product x_i*x_j in a skew algebra with q_ij in
    {1, -1, 2, 3} and each x_i^2 = 0 with probability 0.4, over QQ, GF(7)
    or GF(11)."""
    field = draw(st.sampled_from([QQ, GF(7), GF(11)]))
    n = draw(st.integers(2, 3))
    rels = [{(j, i): 1, (i, j): -draw(st.sampled_from([1, -1, 2, 3]))}
            for i in range(n) for j in range(i + 1, n)]
    rels += [{(i, i): 1} for i in range(n)
             if draw(st.integers(0, 4)) < 2]
    pres = QuadraticPresentation.create(
        field, [f"x{i}" for i in range(n)], rels, degree_cap=5)
    letters = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    f = pres.one()
    for u in letters:
        f = f * pres.generator(u)
    return f


def multiplication_ranks_full(f, d_max):
    """Both f*- and -*f injective on A_i for i <= d_max, by rational
    ranks."""
    pres = f.presentation
    for i in range(d_max + 1):
        basis = [basis_element(pres, i, w) for w in range(pres.dim(i))]
        for cols in ([(f * b).coords for b in basis],
                     [(b * f).coords for b in basis]):
            if rank_of_columns(cols, pres.dim(i + f.degree),
                               pres.field) != len(basis):
                return False
    return True


@settings(max_examples=80)
@given(normal_monomials())
def test_regularity_of_normal_elements_from_the_hilbert_function(f):
    assume(f and span_normal(f))
    d = f.presentation.degree_cap - f.degree
    expected = multiplication_ranks_full(f, d)
    def no_rank(*args):
        raise AssertionError("a normal element needs no rank")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "rank_of_columns", no_rank)
        assert is_regular_up_to(f, d) == expected


@st.composite
def monomial_binomials(draw):
    """A monomial f of ``normal_monomials`` plus c times another monomial
    of its degree in the same algebra (c = 0 keeps f), so that normal and
    non-normal elements, regular or not, all arise."""
    f = draw(normal_monomials())
    pres = f.presentation
    g = pres.one()
    for u in draw(st.lists(st.integers(0, pres.n - 1), min_size=f.degree,
                           max_size=f.degree)):
        g = g * pres.generator(u)
    return f + g.scale(draw(st.sampled_from([0, 1, -1, 2])))


def sigma_by_solving(f):
    """An automorphism sigma with f*x_j = sigma(x_j)*f, from the particular
    solution of the linear system: for regular f the solution is unique, so
    None means no sigma exists."""
    pres = f.presentation
    n, field = pres.n, pres.field
    gens = [pres.generator(u) for u in range(n)]
    rows = columns_to_rows([(x * f).coords for x in gens],
                           pres.dim(f.degree + 1))
    sols = solve_batch(rows, n, [(f * x).coords for x in gens], field)
    if any(sol is None for sol in sols):
        return None
    try:
        sigma = GradedAutomorphism(pres, [[sols[j].get(u, field.zero)
                                           for j in range(n)]
                                          for u in range(n)])
    except ValueError:
        return None
    assert all(f * x == sigma(x) * f for x in gens)
    return sigma


@settings(max_examples=80)
@given(monomial_binomials())
def test_span_verdict_is_the_existence_of_sigma_for_regular_elements(f):
    assume(f)
    assume(multiplication_ranks_full(f, f.presentation.degree_cap - f.degree))
    sigma = sigma_by_solving(f)
    assert span_normal(f) == (sigma is not None)
    assert is_normal(f) == sigma


@settings(max_examples=80)
@given(monomial_binomials())
def test_regularity_verdict_is_the_rank_of_both_multiplication_maps(f):
    assume(f)
    d = f.presentation.degree_cap - f.degree
    assert is_regular_up_to(f, d) == multiplication_ranks_full(f, d)


def test_shamash_builds_each_component_once():
    """The regularity check and the verification share B's components."""
    builds = []

    def key(pres):
        return tuple(tuple(sorted(row.items())) for row in pres.rel_rows)

    def counted(build):
        def wrapper(pres, d, prev, prev2):
            builds.append((key(pres), d))
            return build(pres, d, prev, prev2)
        return wrapper

    q = [[1 if i == j else -1 for j in range(4)] for i in range(4)]
    A = QuadraticPresentation.skew(QQ, ["a", "b", "c", "d"], q, degree_cap=7)
    assert not A._components
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_rref_component", "_rewrite_component"):
            mp.setattr(algebra, name, counted(getattr(algebra, name)))
        P = linear_resolution(A, "right", 4)
        T, _ = shamash(A, P, sum_of_squares(A), length=4)
    assert T.meta["verification"].is_exact()
    B = T.presentation
    assert {(key(B), d) for d in range(2, 8)} <= set(builds)
    assert len(builds) == len(set(builds))


def test_is_normal_examples(sec5_algebra):
    # the minus-one skew plane: x1*x2 has sigma = diag(-1,-1);
    # x1^2 + x2^2 is central (sigma = identity)
    plane = QuadraticPresentation.skew(QQ, ["x1", "x2"], [[1, -1], [-1, 1]])
    a, b = plane.generator(0), plane.generator(1)
    sig = is_normal(a * b)
    assert sig is not None
    assert sig.matrix == ((QQ(-1), QQ(0)), (QQ(0), QQ(-1)))
    sig2 = is_normal(a * a + b * b)
    assert sig2 is not None and sig2.is_identity()
    # the section-5 element xy is not normal
    x, y = sec5_algebra.generator(0), sec5_algebra.generator(1)
    assert is_normal(x * y) is None


def test_is_normal_central_in_commutative():
    pres = QuadraticPresentation.commutative(QQ, ["x", "y", "z"])
    f = sum_of_squares(pres)
    sig = is_normal(f)
    assert sig is not None and sig.is_identity()


def test_normalizing_identity_random(case3_algebra):
    f = sum_of_squares(case3_algebra)
    sigma = is_normal(f)
    rng = random.Random(23)
    gens = [case3_algebra.generator(i) for i in range(4)]
    for _ in range(5):
        a = case3_algebra.one()
        for _ in range(rng.randint(1, 2)):
            a = a * gens[rng.randrange(4)]
        a = a.scale(rng.randint(1, 3))
        assert f * a == sigma(a) * f


def test_quotient_examples():
    pres = QuadraticPresentation.commutative(QQ, ["x1", "x2", "x3", "x4"])
    f = sum_of_squares(pres)
    B = pres.quotient(f)
    assert B.r == 7
    assert B.dim(2) == pres.dim(2) - 1
    for d in range(5):
        assert B.dim(d) <= pres.dim(d)
    assert B.dim(0) == 1 and B.dim(1) == 4
    with pytest.raises(ValueError):
        pres.quotient(pres.zero_element(2))


def test_quotient_by_relation_span_rejected(quantum_plane):
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    f = x * y - (y * x).scale(2)      # zero in A
    assert f.is_zero()
    with pytest.raises(ValueError):
        quantum_plane.quotient(f)


def test_opposite_examples(quantum_plane):
    comm = QuadraticPresentation.commutative(QQ, ["x", "y"])
    assert comm.opposite() is comm
    opp = quantum_plane.opposite()
    expected = QuadraticPresentation.create(QQ, ["x", "y"],
                                            [{(1, 0): 1, (0, 1): -2}])
    assert opp is expected
    assert opp.opposite() is quantum_plane


def test_opposite_element_reverses_words(sec5_algebra):
    x, y = sec5_algebra.generator(0), sec5_algebra.generator(1)
    el = x * y
    rev = opposite_element(el)
    back = opposite_element(rev)
    assert back == el


def test_apply_automorphism(quantum_plane):
    ident = GradedAutomorphism.identity(quantum_plane)
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    el = x * y + (y * y).scale(3)
    assert ident(el) == el
    diag = GradedAutomorphism(quantum_plane, [[QQ(2), QQ(0)],
                                              [QQ(0), QQ(5)]])
    assert diag(x * y) == (x * y).scale(10)
    tau = diag.inverse()
    assert tau(diag(el)) == el


def test_automorphism_multiplicative(case3_algebra):
    f = sum_of_squares(case3_algebra)
    sigma = is_normal(f)
    rng = random.Random(31)
    gens = [case3_algebra.generator(i) for i in range(4)]
    for _ in range(5):
        a = gens[rng.randrange(4)] * gens[rng.randrange(4)]
        b = gens[rng.randrange(4)]
        assert sigma(a * b) == sigma(a) * sigma(b)


def test_automorphism_must_preserve_relations(quantum_plane):
    # swapping x and y does not preserve xy - 2yx
    with pytest.raises(ValueError):
        GradedAutomorphism(quantum_plane, [[QQ(0), QQ(1)], [QQ(1), QQ(0)]])


@st.composite
def relation_maps(draw):
    """A presentation with skew or dense relations over QQ or GF(7), and an
    n x n matrix: diagonal (which preserves skew relations), a transposition
    of two variables, or sparse entries."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    n = draw(st.integers(2, 3))
    names = ["x", "y", "z"][:n]
    c = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    if draw(st.booleans()):
        q = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = draw(st.sampled_from([1, -1, 2, 3]))
                q[j][i] = field.inv(q[i][j])
        pres = QuadraticPresentation.skew(field, names, q, degree_cap=3)
    else:
        words = [(u, v) for u in range(n) for v in range(n)]
        rels = [rel for _ in range(draw(st.integers(1, n * n - 1)))
                if (rel := {w: a for w in words if (a := draw(c))})]
        pres = QuadraticPresentation.create(
            field, names, rels or [{(0, 1): 1, (1, 0): -1}], degree_cap=3)
    kind = draw(st.sampled_from(["diagonal", "swap", "sparse"]))
    if kind == "diagonal":
        m = [[draw(st.sampled_from([1, -1, 2])) if i == j else 0
              for j in range(n)] for i in range(n)]
    elif kind == "swap":
        m = [[int(j == (1 - i if i < 2 else i)) for j in range(n)]
             for i in range(n)]
    else:
        m = [[draw(c) for _ in range(n)] for _ in range(n)]
    return pres, m


@settings(max_examples=60, deadline=None)
@given(relation_maps())
def test_relations_preserved_by_the_sparse_sum_as_by_s_a_st(case):
    """The sparse invariant agrees with the dense one: S a S^T in R for
    every relation matrix a."""
    pres, m = case
    field, n = pres.field, pres.n
    sigma = GradedAutomorphism(pres, m, _checked=True)
    S = [list(r) for r in sigma.matrix]
    St = [list(col) for col in zip(*S)]

    def in_r(a):
        sas = mat_mul(mat_mul(S, a, field), St, field)
        return pres._rel_space.contains({u * n + v: x
                                         for u, row in enumerate(sas)
                                         for v, x in enumerate(row) if x})

    assert sigma._preserves_relations() == all(
        in_r(a) for a in pres.relation_matrices())


def test_convert_element_identity_map(quantum_plane):
    x, y = quantum_plane.generator(0), quantum_plane.generator(1)
    B = quantum_plane.quotient(x * x)
    el = x * y
    image = convert_element(el, B)
    assert image.degree == 2
    # x^2 dies in the quotient
    assert convert_element(x * x, B).is_zero()


@st.composite
def dense_relation_cases(draw):
    """A quadratic algebra whose relations use many monomials, two words
    and a nonzero scalar: the step tables then have many entries per
    (basis word, letter), unlike those of skew or monomial algebras."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    n = draw(st.integers(2, 3))
    coeff = st.integers(-3, 3)
    rels = draw(st.lists(
        st.lists(st.lists(coeff, min_size=n, max_size=n),
                 min_size=n, max_size=n), min_size=1, max_size=3))
    pres = QuadraticPresentation.create(field, [f"dv{i}" for i in range(n)],
                                        rels)
    word = st.lists(st.integers(0, n - 1), max_size=3).map(tuple)
    w1, w2 = draw(word), draw(word)
    d = len(w1)
    terms = draw(st.dictionaries(
        st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(tuple),
        coeff, min_size=1, max_size=4))
    lam = draw(st.sampled_from([2, -3, Fraction(1, 2), Fraction(-5, 3)]))
    return pres, w1, w2, terms, field(lam)


@settings(max_examples=60, deadline=None)
@given(dense_relation_cases())
def test_word_walks_agree_on_dense_relations(case):
    pres, w1, w2, terms, lam = case
    field = pres.field
    a = pres.from_word_coeffs(len(w1), {w1: 1})
    b = pres.from_word_coeffs(len(w2), {w2: 1})
    assert pres.from_word_coeffs(len(w1 + w2), {w1 + w2: 1}) == a * b
    el = pres.from_word_coeffs(len(w1), terms)

    def diagonal(c):
        return [[c if i == j else field.zero for j in range(pres.n)]
                for i in range(pres.n)]

    power = field.one
    for _ in range(len(w1)):
        power = power * lam
    assert GradedAutomorphism(pres, diagonal(lam))(el) == el.scale(power)
    assert convert_element(el, pres) == el
    assert convert_element(el, pres, diagonal(field.one)) == el


@st.composite
def mixing_linear_maps(draw):
    """k[x, y, z] over QQ or GF(7), an invertible matrix with a row of two
    or more nonzero entries, a linear form with two or more nonzero
    coefficients, and two elements of degree at most 3."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    pres = QuadraticPresentation.commutative(field, ["mx", "my", "mz"],
                                             degree_cap=6)
    coeff = st.integers(-3, 3).map(field)
    row = st.lists(coeff, min_size=3, max_size=3)
    matrix = draw(st.lists(row, min_size=3, max_size=3))
    assume(invert_matrix([list(r) for r in matrix], field) is not None)
    assume(any(sum(1 for c in r if c) >= 2 for r in matrix))
    form = draw(row)
    assume(sum(1 for c in form if c) >= 2)

    def element():
        d = draw(st.integers(0, 3))
        coords = draw(st.dictionaries(st.integers(0, pres.dim(d) - 1),
                                      coeff, max_size=4))
        return AlgebraElement(pres, d, coords)

    f = AlgebraElement(pres, 1, dict(enumerate(form)))
    return pres, matrix, f, element(), element()


def product_element(a, b):
    return AlgebraElement(a.presentation, a.degree + b.degree,
                          right_walk_product(a, b))


@settings(max_examples=40, deadline=None)
@given(mixing_linear_maps())
def test_convert_element_along_a_mixing_linear_map(case):
    """An invertible linear map preserves R = the commutators, so the
    conversion along it is an automorphism; the conversion onto A/(f) for a
    linear f is the quotient map.  Both are multiplicative, with products
    from the right walk, and the second sends f to 0."""
    pres, matrix, f, a, b = case
    for u in range(pres.n):
        image = convert_element(pres.generator(u), pres, matrix)
        assert image.coords == {t: c for t, c in enumerate(matrix[u]) if c}
    target, subst = pres.quotient_by_linear(f)
    assert target.n == pres.n - 1
    assert convert_element(f, target, subst).is_zero()
    for tgt, linmap in ((pres, matrix), (target, subst)):
        def conv(e):
            return convert_element(e, tgt, linmap)
        assert (conv(product_element(a, b))
                == product_element(conv(a), conv(b)))


def test_interning_keeps_each_cap():
    """Equal presentations with different caps are different objects, so a
    later, larger cap never lifts the cap of an earlier presentation."""
    small = QuadraticPresentation.commutative(QQ, ["x", "y"], degree_cap=3)
    with pytest.raises(DegreeCapExceeded):
        small.dim(5)
    large = QuadraticPresentation.commutative(QQ, ["x", "y"], degree_cap=9)
    assert large.dim(5) == 6
    assert large is not small
    with pytest.raises(DegreeCapExceeded):
        QuadraticPresentation.commutative(QQ, ["x", "y"],
                                          degree_cap=3).dim(5)
    assert QuadraticPresentation.commutative(QQ, ["x", "y"],
                                             degree_cap=3) is small


def test_unreferenced_presentation_leaves_the_intern_table():
    pres = QuadraticPresentation.commutative(QQ, ["gone1", "gone2"])
    pres.opposite()                      # a reference cycle through _cache
    keys = [k for k, v in algebra._INTERN.items() if v is pres]
    assert keys
    del pres
    gc.collect()
    assert not any(k in algebra._INTERN for k in keys)


# ---- the two component builders ------------------------------------------


def assert_builders_agree(pres, top):
    """Every A_d with 4 <= d <= top is the table the elimination builder
    makes from the same lower tables, and, for a PBW presentation, the one
    the rewriting builder makes."""
    for d in range(4, top + 1):
        prev, prev2 = pres.component(d - 1), pres.component(d - 2)
        rref = _rref_component(pres, d, prev, prev2)
        built = pres.component(d)
        assert built.words == rref.words
        assert built.step == rref.step
        if pres._is_pbw():
            rewritten = _rewrite_component(pres, d, prev, prev2)
            assert rewritten.words == rref.words
            assert rewritten.step == rref.step


def pm1_skew(n):
    q = [[1 if i == j else -1 for j in range(n)] for i in range(n)]
    return QuadraticPresentation.skew(QQ, [f"x{i}" for i in range(n)], q)


@pytest.mark.parametrize("n, top", [(4, 8), (6, 6)])
def test_pbw_skew_and_quotient_build_by_rewriting(n, top):
    A = pm1_skew(n)
    B = A.quotient(sum_of_squares(A))
    for pres in (A, B):
        assert_builders_agree(pres, top)
        assert pres._is_pbw()


def test_non_pbw_presentations_stay_on_elimination(sec5_algebra,
                                                   sec5_quotient):
    # PBW implies Koszul, so a non-Koszul presentation must fail the test
    non_koszul = parse_presentation_text(NON_KOSZUL, degree_cap=5)
    for pres in (sec5_algebra, sec5_quotient, non_koszul):
        assert not pres._is_pbw()
        assert_builders_agree(pres, 5)


@st.composite
def builder_cases(draw):
    """Skew algebras over QQ and GF(p), the Jordan plane in both letter
    orders (PBW for one, not the other) and random dense presentations."""
    kind = draw(st.sampled_from(["skew", "jordan", "dense"]))
    field = draw(st.sampled_from([QQ, GF(5), GF(7)]))
    if kind == "skew":
        n = draw(st.integers(2, 4))
        q = [[field.one] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = field(draw(st.integers(1, 4))
                          * draw(st.sampled_from([1, -1])))
                q[i][j], q[j][i] = v, field.inv(v)
        pres = QuadraticPresentation.skew(field, [f"s{i}" for i in range(n)],
                                          q, degree_cap=6)
    elif kind == "jordan":
        # x*y - y*x - y^2 leads with x*y; x*y - y*x - x^2 leads with x^2
        sq = draw(st.sampled_from([(1, 1), (0, 0)]))
        pres = QuadraticPresentation.create(
            field, ["jx", "jy"], [{(0, 1): 1, (1, 0): -1, sq: -1}],
            degree_cap=6)
    else:
        n = draw(st.integers(2, 3))
        coeff = st.integers(-2, 2)
        rels = draw(st.lists(
            st.lists(st.lists(coeff, min_size=n, max_size=n),
                     min_size=n, max_size=n), min_size=1, max_size=n))
        pres = QuadraticPresentation.create(
            field, [f"r{i}" for i in range(n)], rels, degree_cap=6)
    return pres, 6 if pres.n <= 3 else 5


@settings(max_examples=40)
@given(builder_cases())
def test_rewriting_builder_matches_elimination(case):
    pres, top = case
    assert_builders_agree(pres, top)


def test_builder_cases_cover_both_paths():
    for pbw in (True, False):
        pres, _ = find(builder_cases(), lambda c: c[0]._is_pbw() is pbw)
        assert pres._is_pbw() is pbw


def test_normal_zero_divisor_is_refused_as_not_regular():
    """In k<x,y>/(xy, yx) the element x^2 is central, but y*x^2 = 0, so
    u -> x_u x^2 has a kernel and sigma is not unique.  The span verdict
    is "normal", the dimensions say "not regular", and both ``is_normal``
    and shamash refuse x^2 as a zero divisor."""
    pres = QuadraticPresentation.create(QQ, ["x", "y"],
                                        [{(0, 1): 1}, {(1, 0): 1}])
    x = pres.generator(0)
    f = x * x
    assert span_normal(f)
    assert not is_regular_up_to(f, 4)
    with pytest.raises(NotRegularError, match="zero divisor"):
        is_normal(f)
    with pytest.raises(NotRegularError):
        shamash(pres, linear_resolution(pres, "right", 3, check="report"),
                f, length=3)


def test_normal_element_whose_sigma_moves_a_relation_is_not_regular():
    """In k<x,y>/(x^2 + y^2 - yx, xy + yx), A_3 = 0 and y is normal with
    x_u*y independent, so sigma (x -> -x, y -> y) is unique; it moves the
    first relation off R, and y kills A_2."""
    pres = QuadraticPresentation.create(
        QQ, ["x", "y"], [{(0, 0): 1, (1, 1): 1, (1, 0): -1},
                         {(0, 1): 1, (1, 0): 1}], degree_cap=5)
    y = pres.generator(1)
    assert pres.dim(3) == 0
    assert span_normal(y)
    assert is_regular_up_to(y, 1) and not is_regular_up_to(y, 2)
    with pytest.raises(NotRegularError, match="sigma"):
        is_normal(y)


# ---- left multiplication tables ---------------------------------------

def basis_element(pres, d, w):
    return AlgebraElement(pres, d, {w: pres.field.one})


def assert_left_tables_match(pres, top):
    """Every image x_u * w stored in the left tables of A_1..A_top is the
    product computed by the right walk, with no zero scalar stored."""
    for d in range(1, top + 1):
        table = pres.tables().left_table(d)
        assert len(table) == pres.n
        for u, images in enumerate(table):
            assert len(images) == pres.dim(d - 1)
            for w, img in enumerate(images):
                stored = dict(zip(img[::2], img[1::2]))
                assert len(stored) * 2 == len(img)
                assert all(stored.values())
                assert stored == right_walk_product(
                    pres.generator(u), basis_element(pres, d - 1, w))


@settings(max_examples=40)
@given(builder_cases())
def test_left_tables_match_right_walk(case):
    pres, top = case
    assert_left_tables_match(pres, top)


def jordan_plane(field, square):
    """x*y - y*x - y^2 (PBW) or x*y - y*x - x^2 (not PBW in this order)."""
    return QuadraticPresentation.create(
        field, ["jx", "jy"], [{(0, 1): 1, (1, 0): -1, square: -1}],
        degree_cap=7)


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("square", [(1, 1), (0, 0)])
def test_left_tables_of_the_jordan_plane(field, square):
    pres = jordan_plane(field, square)
    assert pres._is_pbw() is (square == (1, 1))
    assert_left_tables_match(pres, 7)


def test_left_tables_of_the_sec5_algebra(sec5_algebra, sec5_quotient):
    for pres in (sec5_algebra, sec5_quotient):
        assert not pres._is_pbw()
        assert_left_tables_match(pres, 6)


@st.composite
def product_cases(draw):
    """Two random homogeneous elements of one presentation (builder_cases)
    whose degrees, 0 included on either side, sum to at most the top."""
    pres, top = draw(builder_cases())
    coeff = st.integers(-3, 3)

    def element(degree):
        dim = pres.dim(degree)
        coords = draw(st.dictionaries(st.integers(0, dim - 1), coeff,
                                      max_size=4)) if dim else {}
        return AlgebraElement(pres, degree, {i: pres.field(c)
                                             for i, c in coords.items()})

    da = draw(st.integers(0, top))
    return element(da), element(draw(st.integers(0, top - da)))


@settings(max_examples=80)
@given(product_cases())
def test_products_match_right_walk(case):
    a, b = case
    prod = a * b
    assert prod.degree == a.degree + b.degree
    assert prod.coords == right_walk_product(a, b)


def test_products_of_mixed_degrees_on_fixed_algebras(sec5_algebra):
    """Every pair of degrees up to 5 on the sec. 5 algebra and the Jordan
    plane over QQ and GF(7), with random coefficients."""
    rng = random.Random(8)
    algebras = [sec5_algebra] + [jordan_plane(field, sq) for field in
                                 (QQ, GF(7)) for sq in ((1, 1), (0, 0))]
    for pres in algebras:
        for da in range(6):
            for db in range(6 - da):
                a, b = (AlgebraElement(pres, d, {
                    i: pres.field(rng.randint(-3, 3))
                    for i in rng.sample(range(pres.dim(d)),
                                        min(3, pres.dim(d)))})
                    for d in (da, db))
                assert (a * b).coords == right_walk_product(a, b)
