"""Diff the outputs of a fixed list of aggsim CLI invocations between two
trees, or record one tree's outputs into the committed manifest.

    python tools/diff_outputs.py OLD_TREE NEW_TREE [--only NAME ...]
    python tools/diff_outputs.py --record [TREE]

Each invocation (see invocations.py) runs in a fresh interpreter per tree,
in an empty working directory, with PYTHONPATH=<tree>/src and BLAS pinned
to one thread. The exit code, stdout, stderr and every file written under
--out are compared byte for byte. Every difference is printed, and the exit
code is 1 if there is any, else 0. --only (repeatable) restricts the run to
the named invocations.

--record runs every invocation on TREE (by default the checkout this tool
is in) and writes cli_manifest.json next to this file: per invocation the
exit code, the stderr text and a sha256 of stdout and of each written file,
with the Python and numpy versions. tests/test_cli_manifest.py compares
the in-process outputs of the checkout with it.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from invocations import INVOCATIONS, manifest_entry

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SHOW_CHARS = 160
MANIFEST = Path(__file__).resolve().with_name("cli_manifest.json")


def outputs(tree, argv):
    """Exit code, stdout, stderr and the written files of one invocation."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "aggsim.cli", *argv, "--out", "out"],
                              cwd=work, env=env, capture_output=True)
        out = Path(work, "out")
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def _first_difference(old, new):
    """The first line at which two byte strings differ, shown shortened."""
    a, b = old.splitlines(), new.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    shown = [repr(lines[i][:SHOW_CHARS]) if i < len(lines) else "end of output"
             for lines in (a, b)]
    return f"line {i + 1}: {shown[0]} != {shown[1]}"


def differences(old, new):
    """Every way two invocations' outputs differ, one line each."""
    found = []
    if old["exit code"] != new["exit code"]:
        found.append(f"exit code: {old['exit code']} != {new['exit code']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found.append(f"{stream}: {_first_difference(old[stream], new[stream])}")
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            found.append(f"{name}: only in the {'new' if a is None else 'old'} tree")
        elif a != b:
            found.append(f"{name}: {_first_difference(a, b)}")
    return found


def record(tree):
    """Write the manifest of every invocation's outputs on tree."""
    manifest = {"python": platform.python_version(), "numpy": np.__version__,
                "invocations": {name: manifest_entry(outputs(tree, argv))
                                for name, argv in INVOCATIONS.items()}}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(INVOCATIONS)} invocations of {tree} in {MANIFEST.name}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", nargs="?")
    parser.add_argument("new_tree", nargs="?")
    parser.add_argument("--only", action="append", choices=sorted(INVOCATIONS), metavar="NAME",
                        help="run only this invocation (repeatable)")
    parser.add_argument("--record", action="store_true",
                        help="record the outputs of OLD_TREE (default: this checkout) "
                             "in the manifest")
    args = parser.parse_args(argv)
    if args.record:
        return record(args.old_tree or Path(__file__).resolve().parents[1])
    if args.new_tree is None:
        parser.error("OLD_TREE and NEW_TREE are required unless --record is given")
    names = args.only or list(INVOCATIONS)
    differing = 0
    for name in names:
        old = outputs(args.old_tree, INVOCATIONS[name])
        found = differences(old, outputs(args.new_tree, INVOCATIONS[name]))
        print(f"{'DIFFERENT' if found else 'same':9}  {name} (old exit {old['exit code']})",
              flush=True)
        for line in found:
            print(f"           {line}")
        differing += bool(found)
    print(f"{len(names) - differing} of {len(names)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
