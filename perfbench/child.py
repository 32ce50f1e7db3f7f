"""One case in one fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload W --case I --seed S --trace 0|1|2
        --spawned-at T [--perturb]
    python3 perfbench/child.py --info

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by all processes on Linux),
so ``setup_s`` covers interpreter start, ``import quadralg`` and parsing.

Exit code 0 with a result line, also when the case failed; exit code 3
without one when the environment is wrong (quadralg not importable from
this checkout's ``src``, or its caches not cold).
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PYTHONHASHSEED")
# CPU-bound warm-up done by the ``--info`` child before the first case
WARM_UP_S = 2.0


def _fail_env(message):
    print(f"perfbench child: {message}", file=sys.stderr)
    sys.exit(3)


def warm_up(seconds):
    """Keep one core busy: a CPU that idled runs faster for its first
    second or so of load, and the first case would get that boost."""
    end = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < end:
        for i in range(10000):
            x += i * i % 7
    return x


def info():
    """Versions and thread settings recorded with every result."""
    import platform
    import numpy
    import quadralg
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "quadralg": quadralg.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in RECORDED_ENV},
        "nproc": os.cpu_count(),
    }))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--info", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--case", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args()

    loaded_before = sorted(m for m in sys.modules if m.startswith("quadralg"))
    sys.path.insert(0, SRC)
    try:
        import quadralg
        from quadralg import algebra
    except ImportError as exc:
        _fail_env(f"cannot import quadralg from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(quadralg.__file__)) != \
            os.path.join(SRC, "quadralg"):
        _fail_env(f"quadralg imported from {quadralg.__file__}, not {SRC}")
    # the process-lifetime caches that force one case per process
    if loaded_before or algebra._INTERN:
        _fail_env("quadralg was loaded or its presentation cache was "
                  "filled before the case started")
    if args.info:
        info()
        warm_up(WARM_UP_S)
        return

    import workloads
    tracer = None
    serialize = workloads.serialize
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, args.trace)
        missed = tracing.verify_patched(tracer)
        if missed:
            _fail_env("unpatched bindings: " + ", ".join(missed))
        if args.trace == 1:
            serialize = tracer.wrap(tracing.SERIALIZE_SPAN, serialize)

    case = workloads.cases_for(args.workload, args.seed)[args.case]
    result = {"pid": os.getpid(), "case": case.name, "ok": False,
              "errors": []}
    try:
        A, f = workloads.parse_inputs(case)
        t0 = time.perf_counter()
        result["setup_s"] = t0 - args.spawned_at
        out = workloads.run_case(case, A, f)
        doc = json.loads(serialize(case, out))
        if args.perturb:
            doc = workloads.perturb(case, doc)
        errors = workloads.check(case, doc, out)
        result["wall_s"] = time.perf_counter() - t0
        result["errors"] = errors
        result["ok"] = not errors
    except Exception:  # a library failure is a failed case
        import traceback
        result["errors"].append(traceback.format_exc())
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.snapshot()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
