"""tools/diff_outputs.py: a tree against itself is identical, and a changed
output byte is reported."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "diff_outputs.py"
SHORT = ("bounds-placement-paper", "bounds-quadratic-demo", "region-dagt_hb-1")


def diff_outputs(old, new, names):
    argv = [sys.executable, str(TOOL), str(old), str(new)]
    for name in names:
        argv += ["--only", name]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_tree_against_itself_is_identical():
    proc = diff_outputs(ROOT, ROOT, SHORT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # bounds on quadratic-demo is a known config error, and stays one
    assert [line.split()[0] for line in lines[:3]] == ["same"] * 3
    assert lines[1].endswith("(old exit 2)")
    assert lines[-1] == "3 of 3 invocations identical"


def test_changed_summary_bytes_are_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "aggsim" / "cli.py"
    text = cli.read_text()
    assert "indent=2" in text
    cli.write_text(text.replace("indent=2", "indent=3"))
    proc = diff_outputs(ROOT, tmp_path, SHORT[:1])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"DIFFERENT  {SHORT[0]} (old exit 0)"
    assert any(line.strip().startswith("stdout: line 2:") for line in lines)
    assert any(line.strip().startswith("summary.json: line 2:") for line in lines)
    assert lines[-1] == "0 of 1 invocations identical"
