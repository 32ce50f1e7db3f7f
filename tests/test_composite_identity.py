"""Upper bounds of point-exactness from the twisted composite identity, and
Groebner bases shared through the ring's memo."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadralg import groebner
from quadralg.algebra import QuadraticPresentation
from quadralg.geometry import (_product_in_relations, _small_points_on,
                               _upper_by_minors, check_g1, check_point_exact,
                               is_semi_standard, sigma_at)
from quadralg.groebner import RadicalTester
from quadralg.linearforms import geometry_ring
from quadralg.polynomials import render_poly
from quadralg.resolutions import linear_resolution
from quadralg.scalars import GF, QQ
from quadralg.serialize import point_exact_report_to_dict
from conftest import quotient_resolutions, sum_of_squares

QUADRIC_SIGNS = {
    "skew-pm1-4": [[1 if i == j else -1 for j in range(4)]
                   for i in range(4)],
    "mixed-sign-4": [[1, -1, -1, 1], [-1, 1, -1, -1], [-1, -1, 1, -1],
                     [1, -1, -1, 1]],
}


def _quadric_quotient(name, length=5, degree_cap=None):
    A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"],
                                   QUADRIC_SIGNS[name], degree_cap)
    res, _ = quotient_resolutions(A, sum_of_squares(A), length=length,
                                  internal_cap=7)
    return res["right"].presentation, res


def _minors_reference(report, res):
    """The serialized report with every upper bound the identity decided
    decided again by the minors path (``_upper_by_minors``, which the
    fallback of ``check_point_exact`` calls)."""
    ring = report.variety.matrix.ring
    doc = point_exact_report_to_dict(report)
    tester = RadicalTester(report.variety.ideal)
    for ev, entry in zip(report.evidence, doc["evidence"]):
        if ev.upper_by != "identity":
            continue
        mat = res.geometric_matrix(ev.degree, ring)
        failure = _upper_by_minors(tester, mat, ev.rho)
        entry["upper_ok"] = failure is None
        entry["upper_failures"] = ([] if failure is None
                                   else [render_poly(failure)])
    doc["verdict"] = all(e["upper_ok"] and e["lower_ok"]
                         for e in doc["evidence"])
    return doc


def _mat_mul(a, b, field):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), field.zero)
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _is_zero(rows):
    return all(not c for row in rows for c in row)


_SKEW_PAIRS = [(0, 1), (0, 2), (1, 2)]


@given(st.sampled_from(["QQ", 7, 11]),
       st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), min_size=3,
                max_size=3),
       st.integers(min_value=2, max_value=3))
@settings(max_examples=16)
def test_identity_reports_equal_minors_reports(field_name, params, n):
    field = QQ if field_name == "QQ" else GF(field_name)
    q = [[field.one] * n for _ in range(n)]
    for (i, j), a in zip(_SKEW_PAIRS, params):
        if j < n:
            q[i][j] = field(a)
            q[j][i] = field.inv(a)
    A = QuadraticPresentation.skew(field, ["x", "y", "z"][:n], q)
    for side in ("right", "left"):
        res = linear_resolution(A, side, 4, check="report")
        rep = check_point_exact(A, side, 3, {side: res})
        assert point_exact_report_to_dict(rep) == _minors_reference(rep, res)
        assert all(ev.upper_by in ("identity", "minors")
                   for ev in rep.evidence)


@pytest.mark.parametrize("name", sorted(QUADRIC_SIGNS))
def test_identity_decides_the_quadric_quotients(name):
    B, res = _quadric_quotient(name, length=4)
    for side in ("right", "left"):
        rep = check_point_exact(B, side, 3, res)
        assert rep.ok
        assert [ev.upper_by for ev in rep.evidence] == [
            "minors", "identity", "identity", "identity"]
        assert (point_exact_report_to_dict(rep)
                == _minors_reference(rep, res[side]))


def _orders_hold(pres, res, pair, degrees):
    """M_{i-1}(p)·M_i(sigma(p)) = 0 on the right and M_i(p)·M_{i-1}(sigma(p))
    = 0 on the left at every small rational point p of E."""
    ring = geometry_ring(pres)
    field = pres.field
    points = _small_points_on(pair.ideal, ring)
    assert points
    for p in points:
        q = sigma_at(pair, p)
        for i in degrees:
            right_prev = res["right"].geometric_matrix(i - 1, ring)
            right = res["right"].geometric_matrix(i, ring)
            assert _is_zero(_mat_mul(right_prev.eval_at(p),
                                     right.eval_at(q), field))
            left_prev = res["left"].geometric_matrix(i - 1, ring)
            left = res["left"].geometric_matrix(i, ring)
            assert _is_zero(_mat_mul(left.eval_at(p),
                                     left_prev.eval_at(q), field))
    return points


@pytest.mark.parametrize("name", sorted(QUADRIC_SIGNS))
def test_product_orders_at_points_of_quadric_quotients(name):
    B, res = _quadric_quotient(name)
    pair = check_g1(B, res)
    assert pair is not None
    _orders_hold(B, res, pair, range(2, 5))


def test_product_orders_at_points_of_the_quantum_plane(quantum_plane):
    res = {side: linear_resolution(quantum_plane, side, 4, check="report")
           for side in ("right", "left")}
    pair = check_g1(quantum_plane, res)
    ring = geometry_ring(quantum_plane)
    points = _orders_hold(quantum_plane, res, pair, range(2, 5))
    # sigma moves points here, so the orders are pinned: the right order
    # with the arguments swapped fails somewhere
    moved = [p for p in points if sigma_at(pair, p) != p]
    assert moved
    m1 = res["right"].geometric_matrix(1, ring)
    m2 = res["right"].geometric_matrix(2, ring)
    assert any(not _is_zero(_mat_mul(m1.eval_at(sigma_at(pair, p)),
                                     m2.eval_at(p), QQ)) for p in moved)


def test_upper_by_reads_minors_without_g1(sec5_quotient):
    assert check_g1(sec5_quotient) is None
    rep = check_point_exact(sec5_quotient, "right", 2)
    assert [ev.upper_by for ev in rep.evidence] == ["minors"] * 3


def test_upper_by_reads_sample_and_empty():
    """(G1) holds, but the linear strand dies at homological degree 3
    while rho_3 = 1, so rho_4 = -1.  The degree cap makes a presentation
    that no other test's minor counts see."""
    bad = QuadraticPresentation.create(QQ, ["x", "y", "z"], [
        {(0, 0): 1, (1, 1): 1}, {(1, 2): 1, (2, 0): -2},
        {(0, 2): 1, (2, 1): 1}], degree_cap=10)
    rep = check_point_exact(bad, "right", 3)
    assert [ev.upper_by for ev in rep.evidence] == [
        "minors", "identity", "identity", "empty"]
    assert rep.failed_degrees() == [3, 4]
    rep = check_point_exact(bad, "right", 3, sample_prefilter=True)
    assert [ev.upper_by for ev in rep.evidence] == [
        "minors", "identity", "sample", "empty"]
    assert rep.failed_degrees() == [3, 4]


def test_identity_needs_the_lower_bound_one_degree_down(monkeypatch,
                                                       quantum_plane):
    """A lower bound that fails at degree 2 sends degree 3 to the minors."""
    from quadralg import geometry
    pair = check_g1(quantum_plane)
    real, calls = geometry._rank_exactly_one_less, []

    def fail_at_degree_2(variety, mat, rho):
        calls.append(mat.shape)
        return len(calls) != 2 and real(variety, mat, rho)

    # (G1) is decided before the patch, so only the degree loop calls it
    monkeypatch.setattr(geometry, "check_g1", lambda *args: pair)
    monkeypatch.setattr(geometry, "_rank_exactly_one_less", fail_at_degree_2)
    rep = check_point_exact(quantum_plane, "right", 2)
    assert [ev.upper_by for ev in rep.evidence] == [
        "minors", "identity", "minors"]
    assert rep.failed_degrees() == [2]


def test_span_check_reads_the_product_order(quantum_plane):
    ring = geometry_ring(quantum_plane)
    res = linear_resolution(quantum_plane, "right", 2, check="report")
    m1, m2 = (res.geometric_matrix(i, ring) for i in (1, 2))
    assert _product_in_relations(quantum_plane, m1, m2)
    assert not _product_in_relations(quantum_plane, m2, m1)


def test_failed_span_check_falls_back_to_minors(monkeypatch):
    from quadralg import geometry
    A = QuadraticPresentation.skew(QQ, ["x", "y"], [[1, 2], [Fraction(1, 2),
                                                             1]])
    monkeypatch.setattr(geometry, "_product_in_relations",
                        lambda *args: False)
    rep = check_point_exact(A, "right", 2)
    assert [ev.upper_by for ev in rep.evidence] == ["minors"] * 3
    assert rep.ok


def test_groebner_runs_once_per_generator_set(monkeypatch):
    # a degree cap no other test uses: a presentation of its own, whose
    # ring starts with an empty memo
    B, res = _quadric_quotient("mixed-sign-4", length=4, degree_cap=12)
    seen = []
    real = groebner._groebner_of

    def counting(ring, polys, order):
        seen.append((ring, order.name, frozenset(polys)))
        return real(ring, polys, order)

    monkeypatch.setattr(groebner, "_groebner_of", counting)
    assert is_semi_standard(B, res)
    assert check_g1(B, res) is not None
    for side in ("right", "left"):
        assert check_point_exact(B, side, 3, res).ok
    # the rings are kept in ``seen``, so a fresh ring never reuses an id
    keys = [(id(ring), order, gens) for ring, order, gens in seen]
    assert seen and len(keys) == len(set(keys))


def test_verdicts_do_not_depend_on_earlier_checks():
    """The same algebra twice (two degree caps no other test uses make two
    fresh presentations): once straight to point-exactness, once after
    semi-standardness and (G1) have filled the Groebner memo."""
    q = QUADRIC_SIGNS["skew-pm1-4"]
    docs, algebras = [], []
    for cap, warm in ((13, False), (14, True)):
        A = QuadraticPresentation.skew(QQ, ["x1", "x2", "x3", "x4"], q,
                                       degree_cap=cap)
        res, _ = quotient_resolutions(A, sum_of_squares(A), length=4,
                                      internal_cap=7)
        B = res["right"].presentation
        algebras.append(B)
        if warm:
            assert is_semi_standard(B, res)
            assert check_g1(B, res) is not None
        docs.append([point_exact_report_to_dict(
            check_point_exact(B, side, 3, res)) for side in ("right", "left")])
    assert algebras[0] is not algebras[1]
    assert geometry_ring(algebras[0]) is not geometry_ring(algebras[1])
    assert docs[0] == docs[1]
