"""The benchmark's tracer (`perfbench/spans.py`) wraps nncp functions by
module attribute name, looked up in `sys.modules` after `import nncp`.  A
renamed or deleted target would break `perfbench/run.py --trace 1`, so every
(module, attribute) pair in its TARGETS must resolve in a fresh
interpreter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RESOLVE = """
import json, sys
import nncp
targets = json.loads(sys.argv[1])
print(json.dumps([[mod, attr] for mod, attr in targets
                  if not hasattr(sys.modules.get(mod), attr)]))
"""


def tracer_targets():
    """TARGETS from spans.py, read as a literal (perfbench is not a package)."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_every_tracer_target_resolves_after_import():
    targets = [(mod, attr) for mod, attr, _ in tracer_targets()]
    assert targets
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", RESOLVE, json.dumps(targets)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
