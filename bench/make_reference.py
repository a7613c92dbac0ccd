"""Record the reference results the benchmark's output checks compare with.

    python3 bench/make_reference.py

Runs every workload command once for every seed-drawn value the workloads
can produce (both sizes) and writes ``reference.json`` next to this file.
Run it only on a commit whose results are trusted; a commit that claims a
speed-up must reproduce this file's results, not re-record them. A command
that fails gets no entry, so its check has nothing to compare against.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import workloads
from checks import CheckError, observe, reference_fields, reference_key
from run import REFERENCE, SRC, WORK_ROOT


def all_variants(size):
    """Every workload instance whose results differ, for one size."""
    for s in range(workloads.SWEEP_INIT_SEEDS):
        yield workloads.cournot_sweep(s, size)
    for s in range(workloads.ROBUST_INIT_SEEDS):
        for n in range(workloads.ROBUST_NOISE_SEEDS):
            yield workloads.cournot_robustness(s, n, size)
    # region and bounds do not depend on the seed-drawn c, and rates is
    # checked against closed forms
    yield workloads.build("stability-scan", 0, size)


def record(main, work_dir):
    table = {name: {size: {} for size in workloads.SIZES} for name in workloads.NAMES}
    for size in workloads.SIZES:
        for workload in all_variants(size):
            entries = table[workload.name][size]
            for command in workload.commands:
                if command.kind == "rates":
                    continue
                out_dir = Path(work_dir) / "out"
                outcome = harness.execute(main, command.argv, out_dir)
                try:
                    observed = observe(command.kind, outcome, out_dir)
                except CheckError as exc:
                    print(f"{workload.name} {size} {command.label}: no reference ({exc}; "
                          f"exit {outcome.code})", flush=True)
                    continue
                fields = reference_fields(command.kind, observed)
                entries.setdefault(command.label, {})[reference_key(command)] = fields
                print(f"{workload.name} {size} {command.label} {reference_key(command)}: "
                      f"{json.dumps(fields)[:120]} ({outcome.seconds:.2f} s)", flush=True)
    return table


def main():
    harness.pin_blas()
    sys.path.insert(0, str(SRC))
    from aggsim.cli import main as cli_main

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
    try:
        table = record(cli_main, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
