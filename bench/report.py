"""Run every workload over several seeds, print one table, write the result file.

    python3 bench/report.py --tag 1 --seeds 1 2 [--trace 0|1|both] [--seconds 30]

Each (workload, seed, mode) runs ``run.py`` in its own process, so peak
memory is per workload. The result file ``results/BENCH_<tag>.json`` holds,
per workload and seed, every metric with its samples and their count,
median and quartiles, the command counts, and the machine the
numbers were measured on. It also holds, per end-to-end metric, the
seeds' medians and their spread (the distance between their quartiles
over their median), and, with two or more seeds, how far the traced
counts of the later seeds lie from the first.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import run
import workloads

RESULTS = run.BENCH_DIR / "results"
RUN_TIMEOUT_S = 600


def bench(workload, seed, seconds, trace, tmp):
    detail = Path(tmp) / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    print(proc.stdout.rsplit("\n", 2)[0], flush=True)
    return json.loads(detail.read_text(encoding="utf-8"))


def summarize(detail):
    out = {}
    for name, samples in detail["samples"].items():
        q1, q2, q3 = harness.quartiles(samples)
        out[name] = {
            "unit": detail["metrics"][name]["unit"],
            "n": len(samples),
            "median": q2,
            "q1": q1,
            "q3": q3,
            "samples": samples,
        }
    return out


def machine():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "processor": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": harness.BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


def count_spread(per_seed):
    """Largest relative distance of each traced count from the first seed's."""
    first, *others = per_seed
    spread = {}
    for name, m in first.items():
        if m["unit"] != "count":
            continue
        base = m["median"]
        worst = max(abs(o[name]["median"] - base) for o in others)
        spread[name] = worst / base if base else float(worst > 0)
    return spread


def seed_spread(per_seed):
    """Per metric: the seeds' medians, their quartiles and the spread
    (q3 - q1) / median, as statistics.quantiles(n=4) gives them."""
    out = {}
    for name in per_seed[0]:
        medians = [s[name]["median"] for s in per_seed]
        q1, q2, q3 = harness.quartiles(medians)
        out[name] = {"medians": medians, "median": q2, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else 0.0}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the result file BENCH_<tag>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="untraced runs, traced runs, or both (default)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    harness.pin_blas()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    result = {"tag": args.tag, "seconds": seconds, "seeds": args.seeds, "machine": machine(),
              "workloads": {}}
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for workload in workloads.NAMES:
            entry = result["workloads"][workload] = {}
            for seed in args.seeds:
                details = {t: bench(workload, seed, seconds, t, tmp) for t in modes}
                first = next(iter(details.values()))
                entry[str(seed)] = {
                    "inputs": first["inputs"],
                    "correct": all(d["correct"] for d in details.values()),
                    "attempted": sum(d["attempted"] for d in details.values()),
                    "failed": sum(d["failed"] for d in details.values()),
                }
                for t, key in ((0, "end_to_end"), (1, "per_layer")):
                    if t in details:
                        entry[str(seed)][key] = summarize(details[t])
            per_seed = [entry[str(s)] for s in args.seeds]
            if 0 in modes:
                entry["end_to_end_across_seeds"] = seed_spread([s["end_to_end"] for s in per_seed])
            if 1 in modes and len(per_seed) > 1:
                entry["count_spread_vs_first_seed"] = count_spread(
                    [s["per_layer"] for s in per_seed])
    print(f"\n{'workload':20s} {'metric':14s} {'unit':>5s} {'seeds':>5s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for workload, entry in result["workloads"].items():
        for metric in spec["end_to_end"] if 0 in modes else ():
            m = entry["end_to_end_across_seeds"][metric["name"]]
            print(f"{workload:20s} {metric['name']:14s} {metric['unit']:>5s} "
                  f"{len(m['medians']):5d} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:7.2%}")
        if "count_spread_vs_first_seed" in entry:
            worst = max(entry["count_spread_vs_first_seed"].items(), key=lambda kv: kv[1])
            print(f"{workload:20s} traced counts: largest spread across seeds "
                  f"{worst[1]:.2%} ({worst[0]})")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
