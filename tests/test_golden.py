"""Byte-for-byte golden outputs of the demos and of the main CLI commands.

Each case runs in a fresh interpreter with ``PYTHONPATH=src`` and
``PYTHONHASHSEED=0`` and its standard output is compared with the file
under ``tests/golden/``.  A change that should leave every output as it is
(a speed-up, a refactor) must keep these bytes.

The files are the outputs of a reference commit.  To regenerate them, run
this file as a script from the root of a checkout of that commit:

    python3 tests/test_golden.py

It writes ``tests/golden/`` next to this file and prints each file name.
"""

import os
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

# the presentation fixtures of tests/test_cli.py that the CLI cases use
FIXTURES = {
    "qplane": ("field QQ\nvars x, y\nrel x*y - 2*y*x\n", "x*y"),
    "sec5": ("field QQ\nvars x, y, z\nrel x*y + y*x + 2*z^2\n"
             "rel y*z + z*y + 2*x^2\nrel z*x + x*z + 2*y^2\n", "x*y"),
    "case2": ("field QQ\nvars x1, x2, x3, x4\nskew\n1 -1 -1 1\n"
              "-1 1 -1 -1\n-1 -1 1 -1\n1 -1 -1 1\n",
              "x1^2 + x2^2 + x3^2 + x4^2"),
}


def _cli_cases():
    cases = {}
    for name, (_, element) in FIXTURES.items():
        pres = f"{name}.pres"
        commands = {
            "resolve": ["resolve", pres, "-L", "3"],
            "shamash": ["shamash", pres, "--element", element, "-L", "3"],
            "report": ["report", pres, "--element", element, "-L", "3",
                       "--max-degree", "2"],
        }
        for command, args in commands.items():
            cases[f"{command}-{name}.out"] = args
            cases[f"{command}-{name}.json.out"] = args + ["--json-out", "-"]
    return cases


CLI_CASES = _cli_cases()
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


def _run(argv, cwd):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QUADRALG_"))}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def output_of(name):
    """Standard output of the golden case ``name`` on this checkout."""
    if name in CLI_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for fixture, (text, _) in FIXTURES.items():
                with open(os.path.join(tmp, f"{fixture}.pres"), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
            return _run(["-m", "quadralg"] + CLI_CASES[name], tmp)
    demo = name[:-len(".out")]
    return _run([os.path.join(ROOT, "demos", demo)], ROOT)


ALL_CASES = sorted(CLI_CASES) + [f"{d}.out" for d in DEMOS]


@pytest.mark.parametrize("name", ALL_CASES)
def test_golden_output(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert output_of(name) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in ALL_CASES:
        with open(os.path.join(GOLDEN, case), "wb") as fh:
            fh.write(output_of(case))
        print(case)
