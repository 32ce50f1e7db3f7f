"""Seeded workloads, their pipelines and the reference checks.

A workload is a list of cases; each case runs in its own fresh interpreter
(see ``child.py``).  The library only ever sees presentation text and
element text generated here from the seed.  Every reference value below is
closed-form or a verdict stated in the project's documentation; none is
read back from the library.
"""

import json
import random
from fractions import Fraction
from math import comb

DEGREE_CAP = 8  # the library default, passed explicitly
RESOLVE_LENGTH = 6
RESOLVE_CAP = 8
GF_PRIME = 32003
GEOMETRY_LENGTH = 4
GEOMETRY_CAP = 5
POINT_EXACT_DEGREE = 3


# ------------------------------------------------------------ input texts

def _skew_text(field, n, signs):
    """Presentation text of the +-1 skew polynomial algebra in n variables.

    ``signs[(i, j)]`` (i < j) is q_ij; q is symmetric because 1/-1 = -1.
    """
    names = [f"x{i + 1}" for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append("1")
            else:
                row.append(str(signs[(min(i, j), max(i, j))]))
        rows.append(" ".join(row))
    return "\n".join([f"field {field}", "vars " + ", ".join(names), "skew"]
                     + rows) + "\n"


def _sum_of_squares(names):
    return " + ".join(f"{x}^2" for x in names)


def _skew_rel_lines(names, q):
    """x_j*x_i - q_ij*x_i*x_j for i < j, written with the names."""
    lines = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            c = q[i][j]
            sign, mag = ("-", c) if c > 0 else ("+", -c)
            coeff = "" if mag == 1 else f"{mag}*"
            lines.append(f"rel {names[j]}*{names[i]} {sign} "
                         f"{coeff}{names[i]}*{names[j]}")
    return lines


def _resolve_signs(seed, n):
    """Seed 0 is the all -1 baseline; other seeds draw each q_ij = +-1."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if seed == 0:
        return {p: -1 for p in pairs}
    rng = random.Random(f"quadric-resolve:{seed}:{n}")
    return {p: rng.choice((-1, 1)) for p in pairs}


def _relabel(seed, name, names):
    """The vars line order: a seeded permutation (identity for seed 0).

    Relation and element texts keep their names, so only the generator
    order the library sees changes; every verdict is invariant under it.
    """
    order = list(names)
    if seed != 0:
        random.Random(f"quadric-geometry:{seed}:{name}").shuffle(order)
    return order


# The three 4-variable quadric quotients: the commutative quadric surface,
# "two points + two plane conics" and "twelve points" (README, demos and
# acceptance criteria 3, 4 and 9).
QUADRIC_SIGNS = {
    "commutative-4": [[1] * 4 for _ in range(4)],
    "mixed-sign-4": [[1, -1, -1, 1], [-1, 1, -1, -1], [-1, -1, 1, -1],
                     [1, -1, -1, 1]],
    "skew-pm1-4": [[1 if i == j else -1 for j in range(4)]
                   for i in range(4)],
}

# Rational points, in the canonical x1..x4 order, on E (on=True) or off it.
QUADRIC_POINTS = {
    "commutative-4": [((1, 0, 0, 0), False), ((1, 1, 0, 0), False)],
    "mixed-sign-4": [((0, 1, 1, 0), True), ((0, 1, -1, 0), True),
                     ((1, 0, 1, 0), True), ((0, 0, 1, 1), True),
                     ((1, 0, 0, 0), False)],
    "skew-pm1-4": [((1, 0, 0, 1), True), ((1, 0, 0, -1), True),
                   ((0, 1, 0, 1), True), ((0, 1, 0, -1), True),
                   ((0, 0, 1, 1), True), ((0, 0, 1, -1), True),
                   ((1, 0, 1, 0), True), ((1, 0, -1, 0), True),
                   ((0, 1, 1, 0), True), ((0, 1, -1, 0), True),
                   ((1, 1, 0, 0), True), ((1, -1, 0, 0), True),
                   ((1, 0, 0, 0), False)],
}

SEC5_RELATIONS = ["rel x*y + y*x + 2*z^2", "rel y*z + z*y + 2*x^2",
                  "rel z*x + x*z + 2*y^2"]
SEC5_WITNESS = {"x": 1, "y": 0, "z": -1}


class Case:
    """One unit of work: inputs as text plus the expected outputs."""

    def __init__(self, name, kind, text, element, expect):
        self.name = name
        self.kind = kind
        self.text = text
        self.element = element
        self.expect = expect


def quotient_ranks(n, length):
    """Betti numbers of k over A/(f), A Koszul with Hilbert series
    1/(1-t)^n and f a regular central quadric: sum_j C(n, i - 2j)."""
    return [sum(comb(n, i - 2 * j) for j in range(i // 2 + 1))
            for i in range(length + 1)]


def quotient_dims(n, cap):
    """dim B_d = C(n+d-1, d) - C(n+d-3, d-2) for B = A/(regular quadric)."""
    return [comb(n + d - 1, d) - (comb(n + d - 3, d - 2) if d >= 2 else 0)
            for d in range(cap + 1)]


def _resolve_cases(field, sizes, seed):
    cases = []
    for n in sizes:
        signs = _resolve_signs(seed, n)
        names = [f"x{i + 1}" for i in range(n)]
        cases.append(Case(
            f"n={n}", "resolve", _skew_text(field, n, signs),
            _sum_of_squares(names),
            {"base_ranks": [comb(n, i) for i in range(RESOLVE_LENGTH + 1)],
             "ranks": quotient_ranks(n, RESOLVE_LENGTH),
             "dims": quotient_dims(n, RESOLVE_CAP)}))
    return cases


def _geometry_cases(seed):
    cases = []
    canon = ["x1", "x2", "x3", "x4"]
    for name, q in QUADRIC_SIGNS.items():
        order = _relabel(seed, name, canon)
        text = "\n".join(["field QQ", "vars " + ", ".join(order)]
                         + _skew_rel_lines(canon, q)) + "\n"
        points = [([coords[canon.index(x)] for x in order], on)
                  for coords, on in QUADRIC_POINTS[name]]
        cases.append(Case(
            name, "quadric-geometry", text,
            _sum_of_squares(canon),
            {"ranks": quotient_ranks(4, GEOMETRY_LENGTH),
             "semi_standard": True, "g1": True,
             "point_exact": {"right": True, "left": True},
             "points": points}))
    order = _relabel(seed, "sec5", ["x", "y", "z"])
    text = "\n".join(["field QQ", "vars " + ", ".join(order)]
                     + SEC5_RELATIONS) + "\n"
    cases.append(Case(
        "sec5-non-normal", "sec5", text, "x*y",
        {"normal": False, "semi_standard": False,
         "witness": [SEC5_WITNESS[x] for x in order],
         "witness_on": {"right": True, "left": False}}))
    return cases


WORKLOADS = {
    "quadric-resolve": lambda seed: _resolve_cases("QQ", (4, 5, 6), seed),
    "quadric-resolve-gf": lambda seed: _resolve_cases(
        str(GF_PRIME), (4, 5), seed),
    "quadric-geometry": _geometry_cases,
}


def cases_for(workload, seed):
    return WORKLOADS[workload](seed)


# ---------------------------------------------------------------- running

def parse_inputs(case):
    """The set-up step: presentation and element text through ``parsing``."""
    from quadralg import parsing
    pres = parsing.parse_presentation_text(case.text, degree_cap=DEGREE_CAP)
    f = parsing.parse_element(pres, case.element, expect_degree=2)
    return pres, f


def _quotient_resolutions(A, f, length, cap):
    from quadralg.algebra import opposite_element
    from quadralg.resolutions import FreeComplex, linear_resolution
    from quadralg.shamash import shamash
    P = linear_resolution(A, "right", length)
    T, _ = shamash(A, P, f, length=length, internal_cap=cap)
    op = A.opposite()
    Pop = linear_resolution(op, "right", length)
    T0, _ = shamash(op, Pop, opposite_element(f), length=length,
                    internal_cap=cap)
    left = FreeComplex(T0.presentation, "left", T0.maps, T0.meta)
    return {"right": T, "left": left}


def run_case(case, A, f):
    """The measured pipeline.  Returns (document, objects for checking)."""
    from quadralg import geometry
    from quadralg.algebra import is_normal
    from quadralg.resolutions import linear_resolution
    from quadralg.shamash import shamash
    if case.kind == "resolve":
        P = linear_resolution(A, "right", RESOLVE_LENGTH)
        T, _ = shamash(A, P, f, length=RESOLVE_LENGTH,
                       internal_cap=RESOLVE_CAP)
        return {"P": P, "T": T}
    if case.kind == "quadric-geometry":
        res = _quotient_resolutions(A, f, GEOMETRY_LENGTH, GEOMETRY_CAP)
        B = res["right"].presentation
        return {
            "res": res,
            "semi": geometry.is_semi_standard(B, res),
            "pair": geometry.check_g1(B, res),
            "pe": {side: geometry.check_point_exact(
                B, side, POINT_EXACT_DEGREE, res)
                for side in ("right", "left")},
        }
    sigma = is_normal(f)
    B = A.quotient(f)
    res = {side: linear_resolution(B, side, 2, check="report")
           for side in ("right", "left")}
    return {
        "sigma": sigma,
        "semi": geometry.is_semi_standard(B, res),
        "varieties": {side: geometry.point_variety(B, side, res)
                      for side in ("right", "left")},
    }


def serialize(case, out):
    """Results to JSON text through ``serialize``, as the CLI does."""
    from quadralg import serialize as S
    if case.kind == "resolve":
        T = out["T"]
        doc = {
            "base_ranks": out["P"].ranks(),
            "base_verification": S.verification_to_dict(
                out["P"].meta["verification"]),
            "verification": S.verification_to_dict(
                T.meta["verification"]),
            "complex": S.complex_to_dict(T),
            "dims": [T.presentation.dim(d) for d in range(RESOLVE_CAP + 1)],
        }
    elif case.kind == "quadric-geometry":
        pair = out["pair"]
        doc = {
            "ranks": {side: c.ranks() for side, c in out["res"].items()},
            "semi_standard": out["semi"],
            "g1": pair is not None,
            "E_ideal": S.ideal_strings(pair.ideal) if pair else None,
            "point_exact": {side: S.point_exact_report_to_dict(rep)
                            for side, rep in out["pe"].items()},
        }
    else:
        doc = {
            "normal": out["sigma"] is not None,
            "semi_standard": out["semi"],
            "ideals": {side: S.ideal_strings(v.ideal)
                       for side, v in out["varieties"].items()},
        }
    return json.dumps(doc, indent=2, sort_keys=True)


# --------------------------------------------------------------- checking

def _vanishes(poly, coords):
    """Evaluate a polynomial from its term dict with plain Fractions."""
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = Fraction(c)
        for x, e in zip(coords, exps):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total == 0


def _on_locus(ideal, coords):
    return all(_vanishes(g, coords) for g in ideal.gens)


def check(case, doc, out):
    """The list of mismatches against the reference (empty when correct)."""
    exp = case.expect
    bad = []

    def want(label, got, expected):
        if got != expected:
            bad.append(f"{label}: got {got!r}, expected {expected!r}")

    if case.kind == "resolve":
        want("base ranks", doc["base_ranks"], exp["base_ranks"])
        want("base exact", doc["base_verification"]["exact"], True)
        want("ranks", doc["complex"]["ranks"], exp["ranks"])
        want("exact", doc["verification"]["exact"], True)
        want("minimal", doc["verification"]["minimal"], True)
        want("first failure", doc["verification"]["first_failure"], None)
        want("dims", doc["dims"], exp["dims"])
    elif case.kind == "quadric-geometry":
        for side in ("right", "left"):
            want(f"{side} ranks", doc["ranks"][side], exp["ranks"])
            want(f"{side} point-exact", doc["point_exact"][side]["verdict"],
                 exp["point_exact"][side])
        want("semi-standard", doc["semi_standard"], exp["semi_standard"])
        want("g1", doc["g1"], exp["g1"])
        pair = out["pair"]
        if pair is not None:
            for coords, on in exp["points"]:
                want(f"{coords} on E", _on_locus(pair.ideal, coords), on)
    else:
        want("normal", doc["normal"], exp["normal"])
        want("semi-standard", doc["semi_standard"], exp["semi_standard"])
        for side, on in exp["witness_on"].items():
            want(f"witness on {side} variety",
                 _on_locus(out["varieties"][side].ideal, exp["witness"]), on)
    return bad


def perturb(case, doc):
    """A copy of the document with one wrong rank or one flipped verdict."""
    doc = json.loads(json.dumps(doc))
    if case.kind == "resolve":
        doc["complex"]["ranks"][2] += 1
    else:
        doc["semi_standard"] = not doc["semi_standard"]
    return doc
