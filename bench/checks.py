"""Output checks for every benchmark command.

``observe`` reads what one command produced (its printed summary and its
files) into plain values; ``check`` compares those values with the
reference recorded by ``make_reference.py`` and with invariants that
need no reference. A command whose check reports a problem counts as a
failed operation.

Tolerances:

- solver iteration counts: within max(2, 0.1%) of the reference, since a
  change of summation order may move the tolerance crossing by a tick;
- noise floors: relative 1e-6 (the noise stream itself is seeded);
- final gradient norms of the delay runs, which stop at their tick budget
  before they converge: relative 1e-6;
- conservative bounds: relative 1e-9 (closed-form arithmetic);
- region member counts: exact; a Jury verdict may disagree with the
  eigenvalue test only within 1e-9 of the unit circle;
- tracker-mean drift of a run: at most 1e-8;
- rates: measured tail rate within 5% of the prediction, the bound the
  package's own rates test uses, and the reduced radius at the tuned
  parameters equal to its closed form within relative 1e-9.
"""

import json
import math
from pathlib import Path

ALGORITHMS = ("dagt", "dagt_hb", "dagt_nes")
MEAN_ERR_MAX = 1e-8
FLOOR_RTOL = 1e-6
GRAD_NORM_RTOL = 1e-6
BOUNDS_RTOL = 1e-9
RADIUS_RTOL = 1e-9
RATES_REL_ERROR_MAX = 0.05
JURY_EIG_GATE = 1e-9


class CheckError(Exception):
    """The command's output is missing or malformed."""


def iteration_tolerance(reference):
    return max(2, math.ceil(1e-3 * reference))


def _csv_rows(path):
    path = Path(path)
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CheckError(f"empty {path.name}")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _summary(outcome):
    if outcome.summary is None:
        raise CheckError("no summary printed")
    return outcome.summary


def observe(kind, outcome, out_dir):
    """Plain values read from one command's summary and files."""
    s = _summary(outcome)
    out_dir = Path(out_dir)
    if kind == "run":
        _, rows = _csv_rows(out_dir / "trace.csv")
        return {
            "iterations": s["iterations"],
            "converged": s["converged"],
            "max_u_mean_err": s["max_u_mean_err"],
            "max_s_mean_err": s["max_s_mean_err"],
            "trace_rows": len(rows),
        }
    if kind == "sweep":
        _, rows = _csv_rows(out_dir / "sweep.csv")
        return {
            "rows": [[r["momentum"], r["iterations"], r["converged"]] for r in s["rows"]],
            "csv_rows": len(rows),
        }
    if kind == "robustness":
        csv_rows = {name: len(_csv_rows(out_dir / name)[1]) for name in s["outputs"]}
        return {
            "delay": {
                a: [s["delay"][a]["iterations"], s["delay"][a]["converged"],
                    s["delay"][a]["final_grad_norm"]]
                for a in ALGORITHMS
            },
            "noise": {
                a: [s["noise"][a]["iterations"], s["noise"][a]["bounded"],
                    s["noise"][a]["floor_residual_msq"]]
                for a in ALGORITHMS
            },
            "csv_rows": csv_rows,
        }
    if kind == "region":
        _, rows = _csv_rows(out_dir / "region.csv")
        disagree = sum(
            1 for r in rows
            if (r[2] == "True") != (float(r[3]) < 1.0) and abs(float(r[3]) - 1.0) > JURY_EIG_GATE
        )
        return {"members": s["members"], "points": s["points"], "csv_rows": len(rows),
                "jury_eig_disagreements": disagree}
    if kind == "bounds":
        if not (out_dir / "bounds.json").is_file():
            raise CheckError("missing bounds.json")
        b = json.loads((out_dir / "bounds.json").read_text(encoding="utf-8"))
        return {alg: [b[alg]["alpha_bar"], b[alg]["momentum_bar"]] for alg in ("hb", "nes")}
    if kind == "rates":
        header, rows = _csv_rows(out_dir / "rates.csv")
        col = {name: i for i, name in enumerate(header)}
        return {
            r[0]: {k: float(r[col[k]]) for k in
                   ("reduced_radius", "rho_graph", "predicted_rate", "measured_rate", "rel_error")}
            for r in rows
        }
    raise ValueError(f"no observer for command kind {kind!r}")


def reference_key(command):
    """Key of a command's entry in the reference: the seed-drawn values
    its results depend on."""
    p = command.params
    if command.kind in ("run", "sweep"):
        return f"init={p['init_seed']}"
    if command.kind == "robustness":
        return f"init={p['init_seed']},noise={p['noise_seed']}"
    return "-"


def reference_fields(kind, observed):
    """The part of an observation that is recorded as the reference."""
    if kind == "run":
        return {"iterations": observed["iterations"], "converged": observed["converged"]}
    if kind == "sweep":
        return {"rows": observed["rows"]}
    if kind == "robustness":
        return {"delay": observed["delay"], "noise": observed["noise"]}
    if kind == "region":
        return {"members": observed["members"]}
    if kind == "bounds":
        return {"hb": observed["hb"], "nes": observed["nes"]}
    return None


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _iters_match(got, ref):
    return abs(got - ref) <= iteration_tolerance(ref)


def _attained_radius(algorithm, kappa):
    """Closed-form reduced radius at the tuned parameters."""
    if algorithm == "dagt":
        return (kappa - 1.0) / (kappa + 1.0)
    if algorithm == "dagt_hb":
        return (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    return 1.0 - 2.0 / math.sqrt(3.0 * kappa + 1.0)


def check(command, observed, ref):
    """Problems found in one command's observed output; empty when correct.

    `ref` is the command's recorded reference entry, or None where the
    check needs none (rates) or none could be recorded (a command that
    failed at the reference commit).
    """
    kind, p, problems = command.kind, command.params, []
    needs_ref = kind in ("run", "sweep", "robustness", "region")
    if needs_ref and ref is None:
        return ["no reference recorded"]
    if kind == "run":
        if observed["converged"] != ref["converged"]:
            problems.append(f"converged {observed['converged']} != {ref['converged']}")
        if not _iters_match(observed["iterations"], ref["iterations"]):
            problems.append(f"iterations {observed['iterations']} != {ref['iterations']}")
        for key in ("max_u_mean_err", "max_s_mean_err"):
            if not observed[key] <= MEAN_ERR_MAX:
                problems.append(f"{key} {observed[key]} > {MEAN_ERR_MAX}")
        if observed["trace_rows"] != observed["iterations"] + 1:
            problems.append(f"trace.csv has {observed['trace_rows']} rows")
    elif kind == "sweep":
        got, want = observed["rows"], ref["rows"]
        if len(got) != len(want):
            problems.append(f"{len(got)} sweep rows != {len(want)}")
        for (m, it, conv), (rm, rit, rconv) in zip(got, want):
            if m != rm or conv != rconv or not _iters_match(it, rit):
                problems.append(f"sweep row {[m, it, conv]} != {[rm, rit, rconv]}")
        if observed["csv_rows"] != len(got):
            problems.append(f"sweep.csv has {observed['csv_rows']} rows")
    elif kind == "robustness":
        for alg in ALGORITHMS:
            (it, conv, grad), (rit, rconv, rgrad) = observed["delay"][alg], ref["delay"][alg]
            if conv != rconv or not _iters_match(it, rit):
                problems.append(f"delay {alg} {[it, conv]} != {[rit, rconv]}")
            if not _close(grad, rgrad, GRAD_NORM_RTOL):
                problems.append(f"delay {alg} final gradient norm {grad} != {rgrad}")
            it, bounded, floor = observed["noise"][alg]
            if it != p["noise_iters"] or not bounded:
                problems.append(f"noise {alg} ran {it} ticks, bounded={bounded}")
            if not _close(floor, ref["noise"][alg][2], FLOOR_RTOL):
                problems.append(f"noise {alg} floor {floor} != {ref['noise'][alg][2]}")
        for name, rows in observed["csv_rows"].items():
            scenario, alg = name[len("robustness_"):-len(".csv")].split("_", 1)
            if rows != observed[scenario][alg][0] + 1:
                problems.append(f"{name} has {rows} rows")
        if len(observed["csv_rows"]) != 2 * len(ALGORITHMS):
            problems.append(f"{len(observed['csv_rows'])} trace files written")
    elif kind == "region":
        if observed["members"] != ref["members"]:
            problems.append(f"members {observed['members']} != {ref['members']}")
        if observed["points"] != p["points"] or observed["csv_rows"] != p["points"]:
            problems.append(f"{observed['points']} points, {observed['csv_rows']} rows")
        if observed["jury_eig_disagreements"]:
            problems.append(f"{observed['jury_eig_disagreements']} Jury/eigenvalue disagreements")
    elif kind == "bounds":
        for alg in ("hb", "nes"):
            values = observed[alg]
            if not all(math.isfinite(v) and v > 0 for v in values):
                problems.append(f"{alg} bounds {values} not finite and positive")
            elif ref is not None and not all(
                _close(v, r, BOUNDS_RTOL) for v, r in zip(values, ref[alg])
            ):
                problems.append(f"{alg} bounds {values} != {ref[alg]}")
    elif kind == "rates":
        c = p["c"]
        kappa = max(c) / min(c)
        if sorted(observed) != sorted(ALGORITHMS):
            problems.append(f"rates rows for {sorted(observed)}")
        for alg, row in observed.items():
            if not row["rel_error"] <= RATES_REL_ERROR_MAX:
                problems.append(f"{alg} rel_error {row['rel_error']} > {RATES_REL_ERROR_MAX}")
            if not _close(row["reduced_radius"], _attained_radius(alg, kappa), RADIUS_RTOL):
                problems.append(f"{alg} reduced radius {row['reduced_radius']} != closed form")
            if row["predicted_rate"] != max(row["rho_graph"], row["reduced_radius"]):
                problems.append(f"{alg} predicted rate is not max(rho_graph, reduced radius)")
    else:
        raise ValueError(f"no check for command kind {kind!r}")
    return problems
