"""Loading whitice from the checkout's ``src/`` and calling its CLI in-process."""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("cli", "coeffs", "gauss", "jsonio", "lattice", "laurent",
           "partition", "patterns", "transfer", "weyl", "ybe")


class ProgramMissing(RuntimeError):
    """The checkout holds no whitice sources next to the benchmark."""


def load_program() -> SimpleNamespace:
    """Import whitice afresh from ``src/`` (dropping any copy already
    imported) and return its modules by short name."""
    package = SRC / "whitice"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no whitice package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "whitice" or m.startswith("whitice.")]:
        del sys.modules[name]
    importlib.import_module("whitice.cli")
    program = SimpleNamespace(**{m: sys.modules[f"whitice.{m}"] for m in MODULES})
    if Path(program.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"whitice imported from {program.cli.__file__}, not {package}")
    return program


def call(cli, argv) -> tuple[int, str]:
    """Run ``cli.main(argv)`` with stdout captured; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()
