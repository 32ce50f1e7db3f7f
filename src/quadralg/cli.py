"""Command-line front end.

Subcommands drive the pipeline on a presentation file: linear resolutions,
point varieties, the (G1) check, point-exactness, quotients and quotient
resolutions, pointwise sigma evaluation, and a combined report.  Human text
goes to stdout; a deterministic JSON document goes to --json-out.

Exit codes: 0 = ran (verdicts are inside the report, false verdicts are not
errors), 2 = input error, 3 = internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .algebra import (DEFAULT_DEGREE_CAP, DegreeCapExceeded,
                      NormalityUndecided, is_normal, is_regular_up_to)
from .geometry import (check_g1, check_point_exact, point_variety,
                       sigma_at, _small_box, _small_points_on)
from .groebner import variety_equal
from .linearforms import ProjPoint, geometry_ring
from .parsing import (ParseError, parse_element, parse_presentation_file,
                      presentation_to_text)
from .resolutions import NonlinearKernelError, linear_resolution
from .serialize import (complex_to_dict, ideal_strings,
                        point_exact_report_to_dict, point_to_strings,
                        render_element, verification_to_dict)
from .shamash import (HomotopyLiftError, InvariantBreach, NotNormalError,
                      NotRegularError, shamash)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BREACH = 3


def _parser():
    p = argparse.ArgumentParser(
        prog="quadralg",
        description="exact computations on quadratic graded algebras")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, element=False):
        sp.add_argument("presentation", help="presentation file")
        sp.add_argument("-L", "--length", type=int, default=6,
                        help="homological length (default 6)")
        sp.add_argument("--cap", type=int, default=None,
                        help="internal degree cap (default 8 or "
                             "QUADRALG_DEGREE_CAP)")
        sp.add_argument("--side", choices=["right", "left", "both"],
                        default="both")
        sp.add_argument("--json-out", default="report.json",
                        help="path for the JSON report ('-' for stdout)")
        sp.add_argument("--seed", type=int, default=None,
                        help="enable the sampling pre-filter with this seed "
                             "(witnesses only; never affects exact verdicts)")
        if element:
            sp.add_argument("--element", required=element == "required",
                            default=None,
                            help="degree-2 element (noncommutative syntax); "
                                 "quotient by it first")
        return sp

    common(sub.add_parser("resolve", help="linear resolution + verification"),
           element=True)
    common(sub.add_parser("point-variety",
                          help="right/left point-variety ideals and "
                               "semi-standardness"), element=True)
    common(sub.add_parser("check-g1", help="the (G1) condition and the "
                                           "geometric pair"), element=True)
    sp = common(sub.add_parser("check-point-exact",
                               help="point-exactness up to a degree"),
                element=True)
    sp.add_argument("--max-degree", type=int, default=3)
    common(sub.add_parser("quotient", help="quotient presentation by a "
                                           "degree-2 element"),
           element="required")
    common(sub.add_parser("shamash",
                          help="resolution of the quotient by a regular "
                               "normal element"), element="required")
    sp = common(sub.add_parser("sigma", help="evaluate sigma at a point"),
                element=True)
    sp.add_argument("--point", required=True,
                    help="comma-separated rational coordinates")
    sp = common(sub.add_parser("report", help="full dossier"), element=True)
    sp.add_argument("--max-degree", type=int, default=3)
    return p


def _load(args):
    """Check length, cap and max degree, parse the presentation and the
    element.  The only reader of ``QUADRALG_DEGREE_CAP``.

    Returns (presentation, cap, element or None).
    """
    cap = args.cap
    if cap is None:
        raw = os.environ.get("QUADRALG_DEGREE_CAP", str(DEFAULT_DEGREE_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise ParseError("QUADRALG_DEGREE_CAP must be an integer, "
                             f"got {raw!r}") from None
    if args.length < 1:
        raise ParseError("length must be >= 1")
    if getattr(args, "max_degree", 0) < 0:
        raise ParseError("max degree must be >= 0")
    if cap < args.length + 2:
        cap = args.length + 2
    pres = parse_presentation_file(args.presentation, degree_cap=cap)
    f = None
    if getattr(args, "element", None):
        f = parse_element(pres, args.element, expect_degree=2)
        if not f:
            raise ParseError("element is zero in the algebra")
    return pres, cap, f


def _sides(args):
    return ["right", "left"] if args.side == "both" else [args.side]


def _resolutions(pres, sides, length, check="report"):
    return {side: linear_resolution(pres, side, length, check=check)
            for side in sides}


def _emit(args, config, results, text_lines):
    doc = {
        "tool_version": __version__,
        "config": config,
        "results": results,
    }
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for line in text_lines:
        print(line)
    if args.json_out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"json report: {args.json_out}")


def _config(args, cap, lift):
    cfg = {
        "command": args.command,
        "presentation": os.path.basename(args.presentation),
        "length": args.length,
        "cap": cap,
        "side": args.side,
        "seed": args.seed,
    }
    if getattr(args, "element", None):
        cfg["element"] = args.element
        cfg["element_canonical_lift"] = lift
    if getattr(args, "max_degree", None) is not None:
        cfg["max_degree"] = args.max_degree
    if getattr(args, "point", None):
        cfg["point"] = args.point
    return cfg


def _cmd_resolve(args, pres, cap, lift):
    results = {}
    lines = []
    for side in _sides(args):
        try:
            cplx = linear_resolution(pres, side, args.length, check="raise")
            rep = cplx.meta["verification"]
            results[side] = {
                "ranks": cplx.ranks(),
                "verification": verification_to_dict(rep),
                "complex": complex_to_dict(cplx),
            }
            lines.append(f"{side:>5} ranks {cplx.ranks()}  exact(<= "
                         f"{rep.internal_cap}): {rep.is_exact()}  minimal: "
                         f"{rep.minimal}")
        except NonlinearKernelError as exc:
            results[side] = {"koszul_at_truncation": False,
                             "failure": str(exc)}
            lines.append(f"{side:>5} NOT Koszul at truncation: {exc}")
    return results, lines


def _cmd_point_variety(args, pres, cap, lift):
    sides = ["right", "left"]
    res = _resolutions(pres, sides, 2)
    right = point_variety(pres, "right", res)
    left = point_variety(pres, "left", res)
    semi = variety_equal(right.ideal, left.ideal)
    results = {
        "right_ideal": ideal_strings(right.ideal),
        "left_ideal": ideal_strings(left.ideal),
        "semi_standard": semi,
    }
    lines = ["right point variety ideal:"]
    lines += [f"  {s}" for s in results["right_ideal"]] or ["  (0)"]
    if not results["right_ideal"]:
        lines[-1:] = ["  (0)  [all of projective space]"]
    lines.append("left point variety ideal:")
    lines += ([f"  {s}" for s in results["left_ideal"]]
              or ["  (0)  [all of projective space]"])
    lines.append(f"semi-standard: {semi}")
    if not semi:
        wit = _semi_standard_witness(pres, right, left)
        if wit is not None:
            results["witness"] = point_to_strings(wit)
            lines.append(f"witness point: {wit}")
    return results, lines


def _semi_standard_witness(pres, right, left, radius=2):
    """A small point on one point variety and off the other, one on the
    right variety if there is any; each vector of ``_small_box`` is tested
    at most once against each variety."""
    ring = geometry_ring(pres)
    left_only = None
    for coords in _small_box(ring.nvars, radius):
        point = [ring.field(c) for c in coords]
        on_right = right.contains_point(point)
        if on_right or left_only is None:
            on_left = left.contains_point(point)
            if on_right and not on_left:
                return ProjPoint(coords, ring.field)
            if on_left and not on_right and left_only is None:
                left_only = coords
    return None if left_only is None else ProjPoint(left_only, ring.field)


def _cmd_check_g1(args, pres, cap, lift):
    res = _resolutions(pres, ["right", "left"], 2)
    pair = check_g1(pres, res)
    results = {"g1": pair is not None}
    lines = [f"(G1) condition: {pair is not None}"]
    if pair is not None:
        results["E_ideal"] = ideal_strings(pair.ideal)
        results["r_plus_one_ge_n"] = pair.r_plus_one_ge_n
        lines.append("E ideal: " + (", ".join(results["E_ideal"]) or
                                    "(0)  [all of projective space]"))
        samples = _small_points_on(pair.ideal, geometry_ring(pres), 1)[:8]
        table = []
        for pt in samples:
            try:
                image = sigma_at(pair, pt)
                table.append({"point": point_to_strings(pt),
                              "sigma": point_to_strings(image)})
                lines.append(f"  sigma{pt} = {image}")
            except RuntimeError:
                pass
        results["sigma_samples"] = table
    return results, lines


def _cmd_check_point_exact(args, pres, cap, lift):
    results = {}
    lines = []
    for side in _sides(args):
        try:
            rep = check_point_exact(pres, side, args.max_degree,
                                    sample_prefilter=args.seed is not None,
                                    seed=args.seed)
            results[side] = point_exact_report_to_dict(rep)
            lines.append(f"{side:>5} point-exact up to {args.max_degree}: "
                         f"{rep.ok}")
            for ev in rep.evidence:
                lines.append(f"       degree {ev.degree}: rho={ev.rho} "
                             f"shape={ev.shape} upper={ev.upper_ok} "
                             f"lower={ev.lower_ok}")
        except NonlinearKernelError as exc:
            results[side] = {"koszul_at_truncation": False,
                             "failure": str(exc)}
            lines.append(f"{side:>5} NOT Koszul at truncation: {exc}")
    return results, lines


def _cmd_quotient(args, pres, cap, lift):
    text = presentation_to_text(pres)
    results = {
        "canonical_lift": lift,
        "presentation": text,
        "dims": [pres.dim(d) for d in range(0, min(cap, 6) + 1)],
    }
    lines = [f"canonical lift of the element: {lift}",
             "quotient presentation:"]
    lines += ["  " + ln for ln in text.strip().splitlines()]
    out_path = ("quotient.pres" if args.json_out == "-"
                else os.path.splitext(args.json_out)[0] + ".pres")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    results["presentation_file"] = out_path
    lines.append(f"presentation written to {out_path}")
    return results, lines


def _cmd_sigma(args, pres, cap, lift):
    res = _resolutions(pres, ["right", "left"], 2)
    pair = check_g1(pres, res)
    if pair is None:
        return ({"g1": False}, ["(G1) fails: sigma is undefined"])
    try:
        pt = ProjPoint([Fraction(c) for c in args.point.split(",")],
                       pres.field)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad point coordinates: {exc}") from None
    if len(pt) != len(pres.names):
        raise ParseError(f"point needs {len(pres.names)} coordinates, "
                         f"got {len(pt)}")
    image = sigma_at(pair, pt)
    results = {"g1": True, "point": point_to_strings(pt),
               "sigma": point_to_strings(image)}
    lines = [f"sigma{pt} = {image}"]
    return results, lines


def _cmd_report(args, pres, cap, lift):
    results = {}
    lines = []
    r, l_ = _cmd_resolve(args, pres, cap, lift)
    results["resolutions"] = r
    lines += l_
    r, l_ = _cmd_point_variety(args, pres, cap, lift)
    results["point_varieties"] = r
    lines += l_
    r, l_ = _cmd_check_g1(args, pres, cap, lift)
    results["g1"] = r
    lines += l_
    r, l_ = _cmd_check_point_exact(args, pres, cap, lift)
    results["point_exact"] = r
    lines += l_
    return results, lines


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        pres, cap, f = _load(args)
        if args.command == "shamash":
            return _run_shamash(args, pres, cap, f)
        lift = None
        if f is not None:
            lift = render_element(f)
            pres = pres.quotient(f)
        handler = {
            "resolve": _cmd_resolve,
            "point-variety": _cmd_point_variety,
            "check-g1": _cmd_check_g1,
            "check-point-exact": _cmd_check_point_exact,
            "quotient": _cmd_quotient,
            "sigma": _cmd_sigma,
            "report": _cmd_report,
        }[args.command]
        results, lines = handler(args, pres, cap, lift)
        _emit(args, _config(args, cap, lift), results, lines)
        return EXIT_OK
    except (ParseError, FileNotFoundError, DegreeCapExceeded,
            NotNormalError, NotRegularError, NotImplementedError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InvariantBreach, HomotopyLiftError, AssertionError,
            RuntimeError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_BREACH


def _run_shamash(args, pres, cap, f):
    lift = render_element(f)
    sigma = is_normal(f)
    results = {"element_canonical_lift": lift,
               "normal": sigma is not None}
    lines = [f"element (canonical lift): {lift}",
             f"normal: {sigma is not None}"]
    if isinstance(sigma, NormalityUndecided):
        results["normal"] = None
        results["normal_undecided"] = sigma.reason
        lines[-1] = f"normal: null ({sigma.reason})"
    if not sigma:
        _emit(args, _config(args, cap, lift), results, lines)
        return EXIT_OK
    results["normalizing_matrix"] = [[str(c) for c in row]
                                     for row in sigma.matrix]
    results["regular_up_to"] = {}
    reg = is_regular_up_to(f, max(cap - 2, 0))
    results["regular_up_to"][str(max(cap - 2, 0))] = reg
    lines.append(f"regular up to degree {max(cap - 2, 0)}: {reg}")
    if not reg:
        _emit(args, _config(args, cap, lift), results, lines)
        return EXIT_OK
    from .algebra import opposite_element
    from .resolutions import FreeComplex
    for side in _sides(args):
        try:
            if side == "right":
                P = linear_resolution(pres, "right", args.length)
                T, tower = shamash(pres, P, f, length=args.length,
                                   internal_cap=cap)
            else:
                op = pres.opposite()
                P = linear_resolution(op, "right", args.length)
                T0, tower = shamash(op, P, opposite_element(f),
                                    length=args.length, internal_cap=cap)
                T = FreeComplex(T0.presentation, "left", T0.maps, T0.meta)
        except NonlinearKernelError as exc:
            results[side] = {"koszul_at_truncation": False,
                             "failure": str(exc)}
            lines.append(f"{side:>5} NOT Koszul at truncation: {exc}")
            continue
        rep = T.meta["verification"]
        results[side] = {
            "ranks": T.ranks(),
            "verification": verification_to_dict(rep),
            "complex": complex_to_dict(T),
        }
        lines.append(f"{side:>5} quotient resolution ranks {T.ranks()}  "
                     f"exact(<= {rep.internal_cap}): {rep.is_exact()}  "
                     f"minimal: {rep.minimal}")
    _emit(args, _config(args, cap, lift), results, lines)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
