"""The benchmark's tracer patches library functions by name: every traced
target must exist, the exact ranks it counts must still be reached, and the
benchmark's own self-test must pass, because a change that reroutes a layer
can leave a traced span silent."""

import importlib
import subprocess
import sys
import types
from pathlib import Path

from quadralg import exactlinalg
from quadralg.scalars import GF, QQ

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    """The tracer module, executed from its source (no bytecode written)."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_span_resolves():
    tracer = _load_tracer()
    for span, targets in tracer.SPANS.items():
        for modname, qualname in targets:
            owner = importlib.import_module(modname)
            for part in qualname.split("."):
                assert hasattr(owner, part), f"{span}: {modname}.{qualname}"
                owner = getattr(owner, part)
            assert callable(owner), f"{span}: {modname}.{qualname}"


def test_rank_of_columns_reaches_exact_rank(monkeypatch):
    calls = []
    real = exactlinalg.exact_rank

    def spy(rows, field=QQ):
        calls.append(field)
        return real(rows, field)

    monkeypatch.setattr(exactlinalg, "exact_rank", spy)
    columns = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 3}]
    assert exactlinalg.rank_of_columns(columns, 3, GF(7)) == 2
    assert calls == [GF(7)]


def test_benchmark_self_test_passes():
    """``perfbench/run.py --self-test``: each workload's smallest case runs
    as is and perturbed, and once in each trace mode with every expected
    span firing (about 11 s on two cores)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out
    assert "FAIL" not in out, out
    assert "PASS" in out, out
