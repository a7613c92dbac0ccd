"""Running aggsim CLI commands in-process and in fresh interpreters."""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# numpy's bundled OpenBLAS is built for 64 threads; one thread keeps the
# timings free of thread start-up and oversubscription on small machines
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ALLOWED_CODES = (0, 2, 3)  # the CLI's exit-code contract

SETUP_TIMEOUT_S = 60

# runs in a fresh interpreter: argv[1] is the source directory, argv[2] the
# CLI arguments as JSON; prints the exit code and the seconds taken
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io, json
from aggsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[2]))
print(json.dumps({"code": code, "seconds": time.perf_counter() - t0}))
"""


def pin_blas():
    """Pin BLAS to one thread; call before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas must run before numpy is imported")
    os.environ.update(BLAS_ENV)


@dataclass
class Outcome:
    """Result of one CLI command."""

    code: object  # int exit code, or None when an exception escaped main
    seconds: float
    summary: dict  # the JSON summary main printed, or None
    error: str  # escaped traceback or stderr tail; '' when clean
    output_bytes: int


def execute(main, argv, out_dir):
    """Run ``main(argv + --out out_dir)`` with output captured.

    An exception that escapes main is caught and reported in the outcome,
    so one broken command never stops the benchmark.
    """
    out_dir = Path(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv) + ["--out", str(out_dir)])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    summary = None
    if code in ALLOWED_CODES and stdout.getvalue().strip():
        try:
            summary = json.loads(stdout.getvalue())
        except json.JSONDecodeError as exc:
            error = f"summary is not JSON: {exc}"
    if not error and code != 0:
        error = stderr.getvalue().strip()[-500:]
    size = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) if out_dir.exists() else 0
    return Outcome(code, seconds, summary, error, size)


def measure_setup(src_dir, argv, out_dir, repeats):
    """Seconds for a fresh interpreter to import aggsim and run `argv`,
    one sample per interpreter; `argv` is a zero-tick run, so this is the
    import, config parsing and problem, graph and oracle construction."""
    samples = []
    for i in range(repeats):
        args = list(argv) + ["--out", str(Path(out_dir) / f"setup{i}")]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src_dir), json.dumps(args)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["code"] != 0:
            raise RuntimeError(f"set-up run exited {result['code']}: {' '.join(argv)}")
        samples.append(result["seconds"])
    return samples


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a single
    value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
