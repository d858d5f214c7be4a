"""The runtime needs only the standard library: importing nncp, every CLI
subcommand and the library's solve path never load numpy or scipy (only
`simplex_solve`, which hands the LP and flow models to scipy's HiGHS, does).
Nor do they load the slow-to-import `dataclasses` (with `inspect`) or
`fractions` (with `decimal`): the exact LP and flow builders import
`fractions` when they run.  `import nncp` alone loads neither `json` nor
`re`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = [("classI:7:30", "cycle"), ("classI:12:40", "star")]
HEAVY = ("numpy", "scipy", "dataclasses", "inspect", "fractions", "decimal")

PRELUDE = """
import sys

def assert_light(stage):
    loaded = [name for name in HEAVY if sys.modules.get(name) is not None]
    assert not loaded, f"{stage} loaded {loaded}"
"""

CLI_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None             # any `import numpy` now fails
sys.modules["scipy"] = None
import nncp
assert_light("import nncp")
from nncp.cli import main
assert_light("import nncp.cli")

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()

for k, (circuit, coupling) in enumerate(INSTANCES):
    inst = ("--circuit", circuit, "--coupling", coupling)
    solved = json.loads(run("solve", *inst, "--out", "json"))
    assert solved["methods"] == {"reduced": solved["opt"]}
    path = f"{sys.argv[1]}/sol{k}.json"
    with open(path, "w") as f:
        json.dump(solved, f)
    assert json.loads(run("verify", "--solution", path, *inst))["ok"]
    assert json.loads(run("stats", *inst, "--out", "json"))["m"] == solved["m"]
assert_light("the CLI's solve, verify and stats")
"""

SOLVE_PATH = """
import nncp
from nncp import (decompose, make, quotient_graph, random_class_i,
                  reconstruct, solve_reduced, verify)

for circuit, family in INSTANCES:
    n, m = (int(v) for v in circuit.split(":")[1:])
    c = decompose(random_class_i(n, m, 0), n=n)
    g, _, _ = make(family, n=n)
    q = quotient_graph(c, g)
    opt, path = solve_reduced(q)
    sol = reconstruct(q, path)
    assert sol.opt == opt and verify(sol, c, g)["ok"]
assert_light("the solve path")
"""


def run_python(code, *args):
    """Run `code` in a fresh interpreter, with INSTANCES, HEAVY and
    `assert_light(stage)` defined."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    head = f"INSTANCES = {INSTANCES!r}\nHEAVY = {HEAVY!r}\n{PRELUDE}"
    proc = subprocess.run([sys.executable, "-c", head + code,
                           *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_with_numpy_unimportable(tmp_path):
    run_python(CLI_WITHOUT_NUMPY, tmp_path)


def test_solve_path_never_loads_numpy():
    run_python(SOLVE_PATH)


def test_import_loads_neither_json_nor_re():
    # without site (-S), which may import re itself: a solution imports json
    # only when it is written or read as JSON
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import nncp, sys; print(sorted({'json', 're'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
