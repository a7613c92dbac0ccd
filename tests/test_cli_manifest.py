"""The CLI's bytes, pinned: every invocation of tools/invocations.py, run
in-process through cli.main, gives the exit code, stdout, stderr and file
bytes recorded in tools/cli_manifest.json.

A change to any output byte fails here. If the change is intended, record
the manifest again (python tools/diff_outputs.py --record) and name the
change; tools/diff_outputs.py run against the parent tree shows the line.
"""

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from aggsim.cli import main

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
from invocations import INVOCATIONS, manifest_entry  # noqa: E402

MANIFEST = json.loads((TOOLS / "cli_manifest.json").read_text())


def in_process_outputs(argv, work):
    """Exit code, stdout, stderr and written files of main(argv) writing
    under work/out. No recorded invocation warns: a warning, which the
    recording interpreter prints to stderr, fails the stderr comparison."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(work / "out")])
    out = work / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": code, "stdout": stdout.getvalue().encode(),
            "stderr": stderr.getvalue().encode(), "files": files}


def test_manifest_is_of_this_python_and_numpy():
    # output bytes may differ on other versions, so the manifest names its own
    recorded = (MANIFEST["python"], MANIFEST["numpy"])
    running = (platform.python_version(), np.__version__)
    assert recorded == running, (
        f"manifest recorded on Python {recorded[0]}, numpy {recorded[1]}; running "
        f"Python {running[0]}, numpy {running[1]}")


def test_manifest_lists_every_invocation():
    assert list(MANIFEST["invocations"]) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", INVOCATIONS)
def test_invocation_matches_manifest(tmp_path, name):
    got = manifest_entry(in_process_outputs(INVOCATIONS[name], tmp_path))
    want = MANIFEST["invocations"][name]
    differing = [stream for stream in ("exit code", "stdout sha256", "stderr")
                 if got[stream] != want[stream]]
    differing += [f"file {file}" for file in sorted(got["files"].keys() | want["files"].keys())
                  if got["files"].get(file) != want["files"].get(file)]
    shown = f": {got['stderr']!r}, recorded {want['stderr']!r}" if "stderr" in differing else ""
    assert not differing, f"{name}: {', '.join(differing)} differ from the manifest{shown}"
