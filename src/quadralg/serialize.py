"""Canonical text rendering and JSON round-tripping.

Elements render as noncommutative polynomial strings over the canonical
word basis (explicit ``*``, ``^`` collapsing repeated letters); complexes
serialize with ranks, shifts and entry strings and parse back exactly.
"""

from __future__ import annotations

from .algebra import QuadraticPresentation
from .polynomials import render_poly, render_terms
from .resolutions import FreeComplex, FreeModuleMap
from .scalars import field_descriptor, field_from_descriptor

FORMAT_VERSION = 1


def _word_str(names, word):
    """A word as letters joined by ``*``, runs as powers; ``""`` when
    empty."""
    parts = []
    run_letter = None
    run_len = 0
    for letter in word + (-1,):
        if letter == run_letter:
            run_len += 1
            continue
        if run_letter is not None:
            parts.append(names[run_letter] if run_len == 1
                         else f"{names[run_letter]}^{run_len}")
        run_letter = letter
        run_len = 1
    return "*".join(parts)


def render_element(element):
    """Canonical string of a homogeneous element over the word basis."""
    if not element.coords:
        return "0"
    pres = element.presentation
    names = pres.names
    words = pres.component(element.degree).words
    return render_terms((element.coords[idx], _word_str(names, words[idx]))
                        for idx in sorted(element.coords))


def presentation_to_dict(pres):
    return {
        "field": field_descriptor(pres.field),
        "generators": list(pres.names),
        "relations": [render_tensor_relation(pres, row)
                      for row in pres.rel_rows],
    }


def render_tensor_relation(pres, row):
    """A relation tensor (dict word-pair index -> coeff) as a string."""
    return render_terms((row[col], _word_str(pres.names, divmod(col, pres.n)))
                        for col in sorted(row))


def presentation_from_dict(data):
    from .parsing import parse_relation
    field = field_from_descriptor(data["field"])
    names = tuple(data["generators"])
    rels = [parse_relation(text, names, field) for text in data["relations"]]
    return QuadraticPresentation.create(field, names, rels)


def complex_to_dict(cplx):
    maps = []
    for d in cplx.maps:
        maps.append({
            "target_shifts": list(d.target_shifts),
            "source_shifts": list(d.source_shifts),
            "entries": [[render_element(e) for e in row]
                        for row in d.entries],
        })
    return {
        "format": FORMAT_VERSION,
        "algebra": presentation_to_dict(cplx.presentation),
        "side": cplx.side,
        "ranks": cplx.ranks(),
        "maps": maps,
    }


def complex_from_dict(data):
    from .parsing import parse_element
    if data.get("format") != FORMAT_VERSION:
        raise ValueError("unknown complex format")
    pres = presentation_from_dict(data["algebra"])
    maps = []
    for mdata in data["maps"]:
        tgt = tuple(mdata["target_shifts"])
        src = tuple(mdata["source_shifts"])
        entries = []
        for k, row in enumerate(mdata["entries"]):
            prow = []
            for j, text in enumerate(row):
                deg = src[j] - tgt[k]
                prow.append(parse_element(pres, text,
                                          expect_degree=max(deg, 0)))
            entries.append(prow)
        maps.append(FreeModuleMap(pres, tgt, src, entries))
    return FreeComplex(pres, data["side"], maps)


def ideal_strings(ideal):
    return [render_poly(g) for g in ideal.gens]


def point_exact_report_to_dict(report):
    return {
        "side": report.side,
        "max_degree": report.max_degree,
        "verdict": report.ok,
        "variety": ideal_strings(report.variety.ideal),
        "evidence": [{
            "degree": ev.degree,
            "rho": ev.rho,
            "shape": list(ev.shape),
            "upper_ok": ev.upper_ok,
            "upper_failures": [render_poly(m) for m in ev.upper_failures],
            "lower_ok": ev.lower_ok,
            "lower_vacuous": ev.lower_vacuous,
            "witness": ([str(c) for c in ev.witness.coords]
                        if ev.witness is not None else None),
        } for ev in report.evidence],
    }


def verification_to_dict(report):
    data = report.summary()
    data["homology_nonzero"] = sorted(
        [list(k) + [v] for k, v in report.homology.items() if v])
    data["scalar_entries"] = [list(t) for t in report.scalar_entries]
    return data


def point_to_strings(point):
    return [str(c) for c in point.coords]
