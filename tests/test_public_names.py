"""Names that code outside the package looks up: the benchmark tracer's
wrapped attributes and the package's ``__all__``."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# run in a fresh interpreter, so no other test's import or patch is seen
PROBE = """
import importlib, json, sys
wraps = json.loads(sys.argv[1])
missing = [f"whitice.{module}.{attr}" for module, attr in wraps
           if not hasattr(importlib.import_module(f"whitice.{module}"), attr)]
import whitice
missing += [f"whitice.{name}" for name in whitice.__all__ if not hasattr(whitice, name)]
print(json.dumps({"missing": missing, "exported": len(whitice.__all__)}))
"""


def tracer_wraps() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's WRAPS, read from
    its source without importing or executing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no WRAPS")


def test_every_traced_attribute_and_export_resolves():
    wraps = tracer_wraps()
    assert ("transfer", "apply_row") in wraps
    assert ("partition", "pattern_side_weight") in wraps
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(wraps)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(out.stdout)
    assert result["missing"] == []
    assert result["exported"] > 30
