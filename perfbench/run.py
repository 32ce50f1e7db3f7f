"""Cold-process benchmark of quadralg's quotient-resolution and
point-variety pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the library is imported from its ``src``.
Every case runs in a fresh interpreter (``child.py``), one process at a
time: a closed loop with one client.  Passes over the workload's cases
repeat until the next pass would end after ``--seconds``; at least one
pass always runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every case
once untraced and once in each trace mode of ``tracer.TRACE_MODES`` per
pass and reports the per-layer metrics of ``tracer.PER_LAYER`` plus the
tracing overhead of each mode (traced / untraced ``wall_s``).
Human-readable lines start with ``#``; the last line of standard output is the JSON result.  See
README.md in this directory.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
# Fixed on both sides of every comparison: one BLAS thread (the library
# calls numpy only inside the mod-p rank kernel), one hash seed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QUADRALG_"))}
    env.update(CHILD_ENV)
    return env


class Runner:
    def __init__(self):
        self.env = _child_env()
        self.pids = set()

    def _spawn(self, argv):
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *argv, "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return proc, None, "timed out"
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        # fresh-process guard: every measured run is a new PID
        if proc.pid in self.pids:
            raise BenchError(f"PID {proc.pid} ran two cases")
        self.pids.add(proc.pid)
        if proc.returncode == 3:
            raise BenchError(err.strip() or "child could not start")
        return proc, out, err

    def info(self):
        proc, out, err = self._spawn(["--info"])
        if out is None or proc.returncode != 0:
            raise BenchError(f"environment probe failed: {err}")
        return json.loads(out.strip().splitlines()[-1])

    def case(self, workload, index, seed, trace=0, perturb=False):
        argv = ["--workload", workload, "--case", str(index),
                "--seed", str(seed), "--trace", str(trace)]
        if perturb:
            argv.append("--perturb")
        proc, out, err = self._spawn(argv)
        lines = out.strip().splitlines() if out else []
        if proc.returncode != 0 or not lines:
            return {"ok": False, "errors": [
                f"exit {proc.returncode}: {(err or '').strip()[-500:]}"]}
        result = json.loads(lines[-1])
        if result["pid"] != proc.pid:
            raise BenchError("child reported another PID")
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def run_passes(runner, workload, seed, start, seconds, trace):
    """Closed loop: passes over the cases until the next would end more
    than ``seconds`` after ``start``."""
    cases = workloads.cases_for(workload, seed)
    modes = [0, *tracing.TRACE_MODES] if trace else [0]
    results = {mode: [[] for _ in cases] for mode in modes}
    pass_times = []
    while True:
        t0 = time.perf_counter()
        for index in range(len(cases)):
            for mode in modes:
                results[mode][index].append(
                    runner.case(workload, index, seed, trace=mode))
        pass_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + max(pass_times) > seconds:
            break
    return cases, results, len(pass_times)


def _case_wall(runs):
    return _median([r["wall_s"] for r in runs if r["ok"]])


def end_to_end(runs_by_case, npasses):
    walls = [_case_wall(runs) for runs in runs_by_case]
    setups = [r["setup_s"] for runs in runs_by_case for r in runs
              if "setup_s" in r]
    rss = [max((runs[p]["peak_rss_mb"] for runs in runs_by_case
                if "peak_rss_mb" in runs[p]), default=0.0)
           for p in range(npasses)]
    return {"wall_s": sum(walls), "setup_s": _median(setups),
            "peak_rss_mb": _median(rss)}, walls


def per_layer(workload, results, npasses):
    """Per-layer metrics from the traced passes; the tracing overhead of
    each trace mode is its wall_s as a share of the untraced wall_s."""
    traced_modes = tracing.TRACE_MODES
    per_pass = []
    for p in range(npasses):
        stats = tracing.merge(runs[p].get("spans", {})
                              for mode in traced_modes
                              for runs in results[mode])
        per_pass.append((stats, tracing.metrics(stats)))
    values = {name: _median([m[name] for _, m in per_pass])
              for name, _, _ in tracing.PER_LAYER}
    plain = sum(_case_wall(runs) for runs in results[0])
    for mode, label in traced_modes.items():
        traced = sum(_case_wall(runs) for runs in results[mode])
        values[f"trace.{label}_wall_s"] = traced
        values[f"trace.{label}_overhead_ratio"] = traced / plain
    silent = sorted({span for stats, _ in per_pass
                     for span in tracing.silent_spans(workload, stats)})
    return values, silent


PER_LAYER_UNITS = {name: unit for name, unit, _ in tracing.PER_LAYER}
for _label in tracing.TRACE_MODES.values():
    PER_LAYER_UNITS[f"trace.{_label}_wall_s"] = "s"
    PER_LAYER_UNITS[f"trace.{_label}_overhead_ratio"] = "ratio"


def _failures(runs_by_mode):
    attempted = failed = 0
    notes = []
    for runs_by_case in runs_by_mode:
        for runs in runs_by_case:
            for r in runs:
                attempted += 1
                if not r["ok"]:
                    failed += 1
                    notes.append(f"{r.get('case', '?')}: {r['errors']}")
    return attempted, failed, notes


def benchmark(args):
    runner = Runner()
    start = time.perf_counter()
    env = runner.info()
    cases, results, npasses = run_passes(runner, args.workload, args.seed,
                                         start, args.seconds, args.trace)
    attempted, failed, notes = _failures(results.values())
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{npasses} pass(es) of {len(cases)} case(s), one fresh process "
          f"per case, {len(runner.pids)} distinct PIDs")
    print("# environment " + json.dumps(env, sort_keys=True))
    e2e, walls = end_to_end(results[0], npasses)
    for case, wall, runs in zip(cases, walls, results[0]):
        print(f"#   {case.name:<16} wall_s median {wall:.4f} "
              f"over {len(runs)} sample(s)")
    correct = failed == 0
    if args.trace:
        metrics, silent = per_layer(args.workload, results, npasses)
        units = PER_LAYER_UNITS
        if silent:
            correct = False
            notes.append("spans that never fired: " + ", ".join(silent))
        for label in tracing.TRACE_MODES.values():
            extra = metrics[f"trace.{label}_wall_s"] - e2e["wall_s"]
            print(f"#   tracing overhead, {label}: {extra:+.3f} s")
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(f"#   fail_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"#   {name:<36} {value:.6g} {units[name]}")
    for note in notes:
        print(f"# FAILED {note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


SELF_TEST_CASES = ("n=4", "sec5-non-normal")


def self_test():
    """The checker counts perturbed outputs as failures, and every span
    fires on the workload that should exercise it."""
    runner = Runner()
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print(f"# self-test {name}: {'PASS' if passed else 'FAIL'} {detail}")

    for workload in workloads.WORKLOADS:
        cases = workloads.cases_for(workload, 0)
        index = next(i for i, c in enumerate(cases)
                     if c.name in SELF_TEST_CASES)
        good = runner.case(workload, index, 0)
        bad = runner.case(workload, index, 0, perturb=True)
        attempted, failed, _ = _failures([[[good, bad]]])
        report(f"{workload} perturbed output counted as failed",
               good["ok"] and not bad["ok"] and failed == 1,
               f"fail_frac {failed}/{attempted}")
        stats = tracing.merge(
            runner.case(workload, i, 0, trace=mode).get("spans", {})
            for mode in tracing.TRACE_MODES for i in range(len(cases)))
        silent = tracing.silent_spans(workload, stats)
        report(f"{workload} expected spans fired", not silent,
               ", ".join(silent))
    return 0 if ok else 1


def main():
    # SIGTERM unwinds like an interrupt, so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quadralg",
                                       "__init__.py")):
        print(f"perfbench: no quadralg sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seconds is None:
            ap.error("--workload and --seconds are required")
        return benchmark(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
