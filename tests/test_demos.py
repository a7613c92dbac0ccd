"""The demos and the README's python blocks call the public API as a user
would: each must run to the end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "placement_walkthrough.py",
    "quadratic_rates_study.py",
    "robustness_study.py",
    "stability_analysis.py",
])
def test_demo_exits_0(tmp_path, demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr


def readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    # the quick start documents run's signature; each block builds on the last
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["trace"].residual_msq
    assert capsys.readouterr().out
