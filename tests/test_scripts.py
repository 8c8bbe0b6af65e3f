"""The scripts under scripts/ compile, and the layer harness starts."""

from __future__ import annotations

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_script_compiles(script, tmp_path):
    py_compile.compile(str(script), cfile=str(tmp_path / "script.pyc"), doraise=True)


def test_bench_layers_help_exits_0():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_layers.py"), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "--src" in proc.stdout
