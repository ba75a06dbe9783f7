"""Every script under demos/ and README's library quick start run to
completion in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import varexp_cir

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    src = str(Path(varexp_cir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    _run_python(["-c", blocks[0]], tmp_path)
