"""Per-layer spans recorded from outside the library.

``install`` replaces each traced function of ``quadralg`` by a wrapper
that times the call and keeps a stack of child time, so every span has a
self time (its duration minus the time covered by traced calls inside it)
and a total time (counted only at the outermost active call, so recursion
such as ``component(d) -> component(d - 1)`` is not counted twice).

A ``from .x import f`` in another module copies the binding ``f``; the
installer patches every module-level binding that is the original object,
and ``verify_patched`` fails if any copy was missed, because a missed copy
would silently read as 0 s.

Spans are kept in memory and returned by ``Tracer.snapshot`` at the end of
the child process.  ``metrics`` turns the summed snapshots of a workload's
cases into the per-layer metrics listed in ``PER_LAYER``.
"""

import importlib
import sys
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.stack = [0.0]
        self.stats = {}
        self.patched = []

    def stat(self, span):
        if span not in self.stats:
            self.stats[span] = Stat()
        return self.stats[span]

    def wrap(self, span, fn, after=None):
        """A wrapper of ``fn`` recording into ``span``; ``after(tracer,
        stat, args, kwargs, result)`` may add counts once the call
        returned."""
        st = self.stat(span)
        stack = self.stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child
                if not st.depth:
                    st.total_s += dt
            if after is not None:
                after(self, st, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def wrap_cached(self, span, fn, cache_attr):
        """Like ``wrap`` for a method memoized in ``self.<cache_attr>``:
        a lookup that hits the memo is counted but not timed, because two
        clock reads would cost more than the lookup."""
        st = self.stat(span)
        timed = self.wrap(span, fn)

        def wrapper(obj, key, *args, **kwargs):
            memo = getattr(obj, cache_attr, None)
            if memo is not None and key in memo:
                st.calls += 1
                st.add("hits", 1)
                return fn(obj, key, *args, **kwargs)
            return timed(obj, key, *args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def snapshot(self):
        return {span: {"calls": s.calls, "self_s": s.self_s,
                       "total_s": s.total_s, **s.extra}
                for span, s in self.stats.items()}


# ------------------------------------------------------------ the spans

def _cells_of_columns(tracer, st, args, kwargs, result):
    columns, nrows = args[0], args[1]
    st.add("cells", nrows * len(columns))


def _rank_of_columns(tracer, st, args, kwargs, result):
    from quadralg.scalars import QQ
    field = args[2] if len(args) > 2 else kwargs.get("field", QQ)
    if field == QQ:
        st.add("rational_calls", 1)


def _cells_of_rows(tracer, st, args, kwargs, result):
    rows = args[0]
    st.add("cells", len(rows) * (len(rows[0]) if rows else 0))


def _minors_out(tracer, st, args, kwargs, result):
    st.add("out", len(result))


def _radical_member(tracer, st, args, kwargs, result):
    """A Rabinowitsch basis inside RadicalTester.contains: that membership
    test was not settled by a normal form."""
    if tracer.stat("groebner.radical_test").depth:
        st.add("in_test", 1)


# span name -> list of (module, qualified attribute); one span may cover
# several functions.  ``scalars`` and ``polynomials`` are measured only
# through their callers: wrapping single Fraction or CommPoly operations
# would cost more than the operations.
SPANS = {
    "algebra.mul": [("quadralg.algebra", "AlgebraElement.__mul__")],
    "algebra.component": [("quadralg.algebra",
                           "QuadraticPresentation.component")],
    "algebra.is_normal": [("quadralg.algebra", "is_normal")],
    "algebra.is_regular": [("quadralg.algebra", "is_regular_up_to")],
    "algebra.convert": [("quadralg.algebra", "convert_element")],
    "resolutions.degree_columns": [("quadralg.resolutions",
                                    "FreeModuleMap.degree_columns")],
    "resolutions.verify": [("quadralg.resolutions", "verify_complex")],
    "resolutions.linear_resolution": [("quadralg.resolutions",
                                       "linear_resolution")],
    "exactlinalg.modular_rank": [("quadralg.exactlinalg", "modular_rank")],
    "exactlinalg.rank_of_columns": [("quadralg.exactlinalg",
                                     "rank_of_columns")],
    "exactlinalg.exact_rank": [("quadralg.exactlinalg", "exact_rank")],
    "exactlinalg.nullspace": [("quadralg.exactlinalg", "nullspace")],
    "exactlinalg.solve_batch": [("quadralg.exactlinalg", "solve_batch")],
    "shamash.tower_solve": [("quadralg.shamash", "HomotopyTower.solve")],
    "shamash.lift": [("quadralg.shamash", "lift_against")],
    "shamash.shamash": [("quadralg.shamash", "shamash")],
    "linearforms.minors": [("quadralg.linearforms",
                            "LinearFormMatrix.minors")],
    # the single entry into Buchberger for every caller in the package
    "groebner.gb": [("quadralg.groebner", "_groebner_of")],
    "groebner.radical": [("quadralg.groebner", "radical_member")],
    "groebner.radical_test": [("quadralg.groebner", "RadicalTester.contains")],
    "groebner.projective_empty": [("quadralg.groebner", "projective_empty")],
    "geometry.point_exact": [("quadralg.geometry", "check_point_exact")],
    "geometry.g1": [("quadralg.geometry", "check_g1")],
    "geometry.semi_standard": [("quadralg.geometry", "is_semi_standard")],
    "geometry.point_variety": [("quadralg.geometry", "point_variety")],
    "parsing.parse": [("quadralg.parsing", "parse_presentation_text"),
                      ("quadralg.parsing", "parse_element")],
}

AFTER = {
    "exactlinalg.modular_rank": _cells_of_columns,
    "exactlinalg.rank_of_columns": _rank_of_columns,
    "exactlinalg.exact_rank": _cells_of_rows,
    "linearforms.minors": _minors_out,
    "groebner.radical": _radical_member,
}

# Memoized methods entered about a million times per case: span -> the
# attribute holding the memo.  They get a traced pass of their own (mode 2),
# so that their wrappers do not distort the self times of the other spans
# (mode 1).
MEMOIZED = {"algebra.component": "_components"}
TRACE_MODES = {1: "layers", 2: "hot"}

# the benchmark's own serialization step (workloads.serialize)
SERIALIZE_SPAN = "serialize.dump"


def _owner(module, qualname):
    parts = qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quadralg"
                                  or name.startswith("quadralg."))]


def spans_for(mode):
    return {span: targets for span, targets in SPANS.items()
            if (span in MEMOIZED) == (mode == 2)}


def install(tracer, mode):
    """Patch every span target of the trace mode and every module-level
    copy of it."""
    for span, targets in spans_for(mode).items():
        for modname, qualname in targets:
            # import_module, not ``from quadralg import shamash``: the
            # package re-exports functions under the submodule names
            module = importlib.import_module(modname)
            owner, attr = _owner(module, qualname)
            original = owner.__dict__[attr]
            if span in MEMOIZED:
                wrapper = tracer.wrap_cached(span, original, MEMOIZED[span])
            else:
                wrapper = tracer.wrap(span, original, AFTER.get(span))
            setattr(owner, attr, wrapper)
            tracer.patched.append((owner, attr, original, wrapper))
            if owner is module:
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def verify_patched(tracer):
    """Names of bindings that still hold an original object (should be
    none)."""
    originals = {id(o) for _, _, o, _ in tracer.patched}
    missed = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if id(value) in originals:
                missed.append(f"{mod.__name__}.{key}")
    for owner, attr, _, wrapper in tracer.patched:
        if owner.__dict__.get(attr) is not wrapper:
            missed.append(f"{owner.__name__}.{attr}")
    return missed


# ------------------------------------------------------------ the metrics

def _get(stats, span, key):
    return stats.get(span, {}).get(key, 0)


def _ratio(num, den):
    """Share of attempts; 1.0 when nothing was attempted (nothing wasted)."""
    return num / den if den else 1.0


# (metric, unit, function of the summed span stats)
PER_LAYER = [
    ("algebra.mul_s", "s",
     lambda s: _get(s, "algebra.mul", "self_s")),
    ("algebra.mul_calls", "count",
     lambda s: _get(s, "algebra.mul", "calls")),
    ("algebra.component_s", "s",
     lambda s: _get(s, "algebra.component", "self_s")),
    ("algebra.component_calls", "count",
     lambda s: _get(s, "algebra.component", "calls")),
    ("algebra.component_builds", "count",
     lambda s: _get(s, "algebra.component", "calls")
     - _get(s, "algebra.component", "hits")),
    ("algebra.is_normal_s", "s",
     lambda s: _get(s, "algebra.is_normal", "total_s")),
    ("algebra.is_regular_s", "s",
     lambda s: _get(s, "algebra.is_regular", "total_s")),
    ("algebra.convert_s", "s",
     lambda s: _get(s, "algebra.convert", "total_s")),
    ("resolutions.degree_columns_s", "s",
     lambda s: _get(s, "resolutions.degree_columns", "self_s")),
    ("resolutions.degree_columns_calls", "count",
     lambda s: _get(s, "resolutions.degree_columns", "calls")),
    ("resolutions.verify_s", "s",
     lambda s: _get(s, "resolutions.verify", "total_s")),
    ("resolutions.linear_resolution_s", "s",
     lambda s: _get(s, "resolutions.linear_resolution", "total_s")),
    ("exactlinalg.modular_rank_s", "s",
     lambda s: _get(s, "exactlinalg.modular_rank", "total_s")),
    ("exactlinalg.modular_rank_calls", "count",
     lambda s: _get(s, "exactlinalg.modular_rank", "calls")),
    ("exactlinalg.modular_rank_cells", "count",
     lambda s: _get(s, "exactlinalg.modular_rank", "cells")),
    ("exactlinalg.rational_rank_calls", "count",
     lambda s: _get(s, "exactlinalg.rank_of_columns", "rational_calls")),
    # every rational rank over QQ follows a mod-p rank that did not close
    ("exactlinalg.cert_closed_ratio", "ratio",
     lambda s: _ratio(
         _get(s, "exactlinalg.modular_rank", "calls")
         - _get(s, "exactlinalg.rank_of_columns", "rational_calls"),
         _get(s, "exactlinalg.modular_rank", "calls"))),
    ("exactlinalg.rank_of_columns_s", "s",
     lambda s: _get(s, "exactlinalg.rank_of_columns", "total_s")),
    ("exactlinalg.exact_rank_s", "s",
     lambda s: _get(s, "exactlinalg.exact_rank", "total_s")),
    ("exactlinalg.exact_rank_calls", "count",
     lambda s: _get(s, "exactlinalg.exact_rank", "calls")),
    ("exactlinalg.exact_rank_cells", "count",
     lambda s: _get(s, "exactlinalg.exact_rank", "cells")),
    ("exactlinalg.nullspace_s", "s",
     lambda s: _get(s, "exactlinalg.nullspace", "total_s")),
    ("exactlinalg.solve_batch_s", "s",
     lambda s: _get(s, "exactlinalg.solve_batch", "total_s")),
    ("shamash.tower_solve_s", "s",
     lambda s: _get(s, "shamash.tower_solve", "total_s")),
    ("shamash.lift_calls", "count",
     lambda s: _get(s, "shamash.lift", "calls")),
    ("shamash.assemble_s", "s",
     lambda s: _get(s, "shamash.shamash", "self_s")),
    ("linearforms.minors_s", "s",
     lambda s: _get(s, "linearforms.minors", "total_s")),
    ("linearforms.minors_calls", "count",
     lambda s: _get(s, "linearforms.minors", "calls")),
    ("linearforms.minors_out", "count",
     lambda s: _get(s, "linearforms.minors", "out")),
    ("groebner.gb_s", "s",
     lambda s: _get(s, "groebner.gb", "total_s")),
    ("groebner.gb_calls", "count",
     lambda s: _get(s, "groebner.gb", "calls")),
    ("groebner.radical_calls", "count",
     lambda s: _get(s, "groebner.radical", "calls")),
    ("groebner.radical_shortcut_ratio", "ratio",
     lambda s: _ratio(_get(s, "groebner.radical_test", "calls")
                      - _get(s, "groebner.radical", "in_test"),
                      _get(s, "groebner.radical_test", "calls"))),
    ("groebner.projective_empty_s", "s",
     lambda s: _get(s, "groebner.projective_empty", "total_s")),
    ("groebner.projective_empty_calls", "count",
     lambda s: _get(s, "groebner.projective_empty", "calls")),
    ("geometry.point_exact_s", "s",
     lambda s: _get(s, "geometry.point_exact", "total_s")),
    ("geometry.g1_s", "s",
     lambda s: _get(s, "geometry.g1", "total_s")),
    ("geometry.semi_standard_s", "s",
     lambda s: _get(s, "geometry.semi_standard", "total_s")),
    ("geometry.point_variety_s", "s",
     lambda s: _get(s, "geometry.point_variety", "total_s")),
    ("geometry.self_s", "s",
     lambda s: sum(_get(s, span, "self_s") for span in SPANS
                   if span.startswith("geometry."))),
    ("parsing.parse_s", "s",
     lambda s: _get(s, "parsing.parse", "total_s")),
    ("serialize.dump_s", "s",
     lambda s: _get(s, SERIALIZE_SPAN, "total_s")),
]

_RESOLVE_SPANS = [
    "algebra.mul", "algebra.component", "algebra.is_normal",
    "algebra.is_regular", "algebra.convert", "resolutions.degree_columns",
    "resolutions.verify", "resolutions.linear_resolution",
    "exactlinalg.nullspace", "exactlinalg.solve_batch",
    "shamash.tower_solve", "shamash.lift", "shamash.shamash",
    "parsing.parse", SERIALIZE_SPAN,
]

# Spans that must fire at least once on each workload.
EXPECTED_SPANS = {
    "quadric-resolve": _RESOLVE_SPANS + ["exactlinalg.modular_rank"],
    "quadric-resolve-gf": _RESOLVE_SPANS + ["exactlinalg.rank_of_columns",
                                            "exactlinalg.exact_rank"],
    "quadric-geometry": _RESOLVE_SPANS + [
        "exactlinalg.modular_rank",
        "linearforms.minors", "groebner.gb", "groebner.radical",
        "groebner.radical_test", "groebner.projective_empty",
        "geometry.point_exact", "geometry.g1", "geometry.semi_standard",
        "geometry.point_variety"],
}


def merge(snapshots):
    """Sum span snapshots key by key."""
    out = {}
    for snap in snapshots:
        for span, fields in snap.items():
            acc = out.setdefault(span, {})
            for key, value in fields.items():
                acc[key] = acc.get(key, 0) + value
    return out


def metrics(stats):
    return {name: fn(stats) for name, _, fn in PER_LAYER}


def silent_spans(workload, stats):
    """Expected spans with no call: a sign of a binding left unpatched."""
    return [span for span in EXPECTED_SPANS[workload]
            if _get(stats, span, "calls") == 0]
