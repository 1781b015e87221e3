#!/usr/bin/env python3
"""Performance-regression guard for the bench JSON outputs.

Compares a fresh bench run (BENCH_machine_sweep.json or
BENCH_solve_throughput.json) against the checked-in baseline under
bench/baselines/. Two classes of column, two rules:

 * Deterministic makespan columns (median_makespan_seconds, ...): exact
   functions of the seeded workload and the solver code, so any drift
   beyond a small floating-point tolerance is a behavior change. Lower is
   better: an increase is a regression (the job fails), a decrease is an
   improvement (the job passes with a note to refresh the baseline).
 * Throughput columns (*_per_sec, *_speedup): higher is better and the
   *_per_sec values are machine-dependent, so they get their own, much
   laxer tolerance (--throughput-tolerance). A drop beyond it fails the
   job; a gain is noted. The candidate_eval_speedup ratio is
   machine-robust (both engines run on the same machine seconds apart),
   which is what makes guarding the fast path's win meaningful in CI.

 * Scaling slopes (slope; bench_scaling's log-log fit of ms per solve
   against the task count n): lower is better with an absolute ceiling
   of 1.4 — O(n log n) solvers read 1.0-1.2, a quadratic loop ~2. A row
   fails above the ceiling whatever its baseline.

Columns present in the candidate but not the baseline (a bench just grew
a metric) are noted and covered after the next --update — never a
failure, so adding a column does not break CI retroactively.

Usage:
  tools/check_bench_baseline.py BASELINE CANDIDATE [--tolerance=0.02]
      [--throughput-tolerance=0.75]
  tools/check_bench_baseline.py BASELINE CANDIDATE --update
  tools/check_bench_baseline.py --self-test

Exit status: 0 ok, 1 regression/missing rows (or failed self-test),
2 usage or I/O error.
"""

import json
import shutil
import sys

DEFAULT_TOLERANCE = 0.02  # 2% relative slack for compiler/FP differences
# Machine-to-machine throughput spread: a candidate may be this fraction
# *below* the baseline before the job fails. Deliberately lax — the guard
# is against the fast path rotting (an order-of-magnitude loss), not
# against a slower CI runner.
DEFAULT_THROUGHPUT_TOLERANCE = 0.75

# Higher-is-better columns, guarded with the throughput tolerance. All
# other compared columns are lower-is-better makespans on the strict one,
# except the scaling slope below.
THROUGHPUT_SUFFIXES = ("_per_sec", "_speedup")

# Scaling slopes: an absolute ceiling, not a band around the baseline.
SLOPE_CEILING = 1.4


def is_throughput_metric(name):
    return name.endswith(THROUGHPUT_SUFFIXES)


def is_slope_metric(name):
    return name == "slope"


def row_key(row):
    """Identity of a bench row across runs."""
    if "slope" in row:
        return ("scaling", row["kernel"], row["solver"])
    if "dag_machine" in row:
        return ("dag", row["kernel"], row["dag_machine"])
    if "machine" in row:
        return ("sweep", row["kernel"], row["machine"])
    if "mode" in row:
        return ("throughput", row["kernel"], row["mode"])
    if "capacity_factor" in row:
        return ("fig7", row["kernel"], row["capacity_factor"])
    return ("asymmetry", row["kernel"], row["d2h_slowdown"])


def metrics(row):
    """The guarded columns of a row."""
    if "slope" in row:
        # bench_scaling row: the fitted slope (ceiling rule) and the
        # makespan at the largest n (deterministic, strict rule).
        return {"slope": row["slope"],
                "makespan_seconds": row["makespan_seconds"]}
    if "dag_machine" in row:
        # DAG-axis row: both medians are deterministic functions of the
        # seeded contraction-chain corpus — strict rule for each.
        return {
            "dag_median_makespan_seconds":
                row["dag_median_makespan_seconds"],
            "relaxed_median_makespan_seconds":
                row["relaxed_median_makespan_seconds"],
        }
    if "machine" in row:
        return {"median_makespan_seconds": row["median_makespan_seconds"]}
    if "mode" in row:
        # solve-throughput row: the deterministic makespan plus every
        # throughput column the bench reported (new columns ride along).
        out = {"median_makespan_seconds": row["median_makespan_seconds"]}
        for name, value in row.items():
            if is_throughput_metric(name):
                out[name] = value
        return out
    if "capacity_factor" in row:
        # fig7-duplex row: the proved-optimal exact makespan and the best
        # heuristic's — both deterministic functions of the seeded corpus.
        return {
            "milp_median_makespan_seconds":
                row["milp_median_makespan_seconds"],
            "best_heuristic_median_makespan_seconds":
                row["best_heuristic_median_makespan_seconds"],
        }
    return {
        "scmr_median_makespan_seconds": row["scmr_median_makespan_seconds"],
        "duplex_balance_median_makespan_seconds":
            row["duplex_balance_median_makespan_seconds"],
    }


def load_rows(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in (data.get("rows", []) + data.get("asymmetry", []) +
                data.get("dag", [])):
        rows[row_key(row)] = metrics(row)
    return rows


def compare(baseline, candidate, tolerance, throughput_tolerance):
    """Classify every guarded metric. Returns a dict of line lists:
    regressions/missing fail the run, the rest are notes."""
    result = {"regressions": [], "improvements": [], "missing": [],
              "new_rows": [], "new_metrics": [], "checked": 0}
    for key, base_metrics in sorted(baseline.items()):
        cand_metrics = candidate.get(key)
        if cand_metrics is None:
            result["missing"].append("/".join(str(part) for part in key))
            continue
        for name in sorted(set(cand_metrics) - set(base_metrics)):
            result["new_metrics"].append(
                f"{'/'.join(str(part) for part in key)} {name}")
        for name, base_value in base_metrics.items():
            cand_value = cand_metrics.get(name)
            if cand_value is None:
                result["missing"].append(
                    f"{'/'.join(str(part) for part in key)} {name}")
                continue
            if base_value <= 0.0:
                continue
            result["checked"] += 1
            delta = (cand_value - base_value) / base_value
            line = (f"{'/'.join(str(part) for part in key)} {name}: "
                    f"{base_value:.6g} -> {cand_value:.6g} "
                    f"({100.0 * delta:+.2f}%)")
            if is_slope_metric(name):
                if cand_value > SLOPE_CEILING:
                    result["regressions"].append(
                        line + f" [ceiling {SLOPE_CEILING}]")
            elif is_throughput_metric(name):
                # Higher is better; the lax machine-spread tolerance.
                if delta < -throughput_tolerance:
                    result["regressions"].append(line)
                elif delta > throughput_tolerance:
                    result["improvements"].append(line)
            else:
                # Deterministic makespan; lower is better, strict.
                if delta > tolerance:
                    result["regressions"].append(line)
                elif delta < -tolerance:
                    result["improvements"].append(line)
    result["new_rows"] = ["/".join(str(part) for part in key)
                          for key in sorted(set(candidate) - set(baseline))]
    return result


def run_self_test():
    """Negative tests: the guard must still catch each regression class
    and must not fail on benign growth (new rows, new columns)."""
    thr_base = {("throughput", "HF", "single"): {
        "median_makespan_seconds": 0.05,
        "legacy_candidate_evals_per_sec": 8.0e4,
        "fastpath_candidate_evals_per_sec": 1.6e6,
        "candidate_eval_speedup": 20.0,
        "solves_per_sec": 10.0,
    }}
    sweep_base = {("sweep", "HF", "cascade"):
                  {"median_makespan_seconds": 1.0}}
    fig7_base = {("fig7", "HF", 1.25): {
        "milp_median_makespan_seconds": 4.0e-5,
        "best_heuristic_median_makespan_seconds": 4.2e-5,
    }}
    scaling_base = {("scaling", "CCSD", "SCMR"): {
        "slope": 1.1, "makespan_seconds": 1650.0,
    }}
    dag_base = {("dag", "CCSD-DAG", "duplex-pcie"): {
        "dag_median_makespan_seconds": 15.0,
        "relaxed_median_makespan_seconds": 13.0,
    }}

    def tweak(rows, **overrides):
        out = {key: dict(vals) for key, vals in rows.items()}
        for vals in out.values():
            vals.update(overrides)
        return out

    failures = []

    def expect(label, result, fails, improvements=0, new_metrics=0):
        did_fail = bool(result["regressions"] or result["missing"])
        if did_fail != fails:
            failures.append(f"{label}: expected fail={fails}, got "
                            f"{result['regressions'] or result['missing']}")
        if len(result["improvements"]) != improvements:
            failures.append(f"{label}: expected {improvements} improvement "
                            f"note(s), got {result['improvements']}")
        if len(result["new_metrics"]) != new_metrics:
            failures.append(f"{label}: expected {new_metrics} new-metric "
                            f"note(s), got {result['new_metrics']}")

    def run(base, cand):
        return compare(base, cand, DEFAULT_TOLERANCE,
                       DEFAULT_THROUGHPUT_TOLERANCE)

    # Identity passes, for every schema.
    expect("identical throughput rows", run(thr_base, thr_base), False)
    expect("identical sweep rows", run(sweep_base, sweep_base), False)
    expect("identical fig7 rows", run(fig7_base, fig7_base), False)
    expect("identical dag rows", run(dag_base, dag_base), False)

    # DAG-axis columns are deterministic makespans: strict in both
    # directions, for the with-edges and the relaxed column alike.
    expect("dag-makespan regression",
           run(dag_base,
               tweak(dag_base, dag_median_makespan_seconds=16.0)),
           True)
    expect("dag relaxed-makespan regression",
           run(dag_base,
               tweak(dag_base, relaxed_median_makespan_seconds=13.5)),
           True)
    expect("dag improvement is a note",
           run(dag_base,
               tweak(dag_base, dag_median_makespan_seconds=14.0)),
           False, improvements=1)

    # Fig. 7 duplex columns are deterministic makespans: strict rule in
    # both directions, for the exact and the best-heuristic column alike.
    expect("fig7 exact-makespan regression",
           run(fig7_base,
               tweak(fig7_base, milp_median_makespan_seconds=4.3e-5)),
           True)
    expect("fig7 heuristic-makespan regression",
           run(fig7_base,
               tweak(fig7_base,
                     best_heuristic_median_makespan_seconds=4.5e-5)),
           True)
    expect("fig7 improvement is a note",
           run(fig7_base,
               tweak(fig7_base,
                     best_heuristic_median_makespan_seconds=4.05e-5)),
           False, improvements=1)

    # Deterministic makespan: strict in both directions of the tolerance.
    expect("makespan regression",
           run(sweep_base, tweak(sweep_base, median_makespan_seconds=1.05)),
           True)
    expect("makespan improvement",
           run(sweep_base, tweak(sweep_base, median_makespan_seconds=0.9)),
           False, improvements=1)

    # Throughput columns: higher is better, lax tolerance.
    expect("speedup collapse fails",
           run(thr_base, tweak(thr_base, candidate_eval_speedup=2.0)), True)
    expect("machine-noise drop passes",
           run(thr_base, tweak(thr_base, candidate_eval_speedup=15.0,
                               fastpath_candidate_evals_per_sec=1.0e6)),
           False)
    expect("evals/sec collapse fails",
           run(thr_base,
               tweak(thr_base, fastpath_candidate_evals_per_sec=1.0e5)),
           True)
    expect("throughput gain is a note",
           run(thr_base, tweak(thr_base, candidate_eval_speedup=45.0)),
           False, improvements=1)

    # A makespan drift inside a throughput row still uses the strict rule.
    expect("throughput row makespan regression",
           run(thr_base, tweak(thr_base, median_makespan_seconds=0.055)),
           True)

    # Scaling slopes: the absolute ceiling catches a quadratic creeping
    # back, noise under it passes, and the makespan stays strict.
    expect("identical scaling rows", run(scaling_base, scaling_base), False)
    expect("quadratic slope fails the ceiling",
           run(scaling_base, tweak(scaling_base, slope=1.95)), True)
    expect("slope just over the ceiling fails",
           run(scaling_base, tweak(scaling_base, slope=1.45)), True)
    expect("slope noise under the ceiling passes",
           run(scaling_base, tweak(scaling_base, slope=1.3)), False)
    expect("scaling makespan regression",
           run(scaling_base, tweak(scaling_base, makespan_seconds=1700.0)),
           True)

    # Missing coverage fails; growth never does.
    cand = {key: {n: v for n, v in vals.items()
                  if n != "candidate_eval_speedup"}
            for key, vals in thr_base.items()}
    expect("dropped column fails", run(thr_base, cand), True)
    expect("missing row fails", run(thr_base, {}), True)
    grown = tweak(thr_base)
    for vals in grown.values():
        vals["merge_probe_hits_per_sec"] = 1.0e6
    expect("new column is a note", run(thr_base, grown), False,
           new_metrics=1)
    both = dict(thr_base)
    both[("throughput", "CCSD", "duplex")] = {
        "median_makespan_seconds": 11.0, "candidate_eval_speedup": 15.0}
    result = run(thr_base, both)
    expect("new row is a note", result, False)
    if result["new_rows"] != ["throughput/CCSD/duplex"]:
        failures.append(f"new row note missing: {result['new_rows']}")

    # The JSON path end-to-end: row_key/metrics on real-shaped rows.
    parsed = {}
    for row in json.loads(json.dumps({"rows": [{
            "kernel": "HF", "mode": "single", "median_tasks": 496,
            "candidates": 18846, "median_makespan_seconds": 0.05,
            "legacy_candidate_evals_per_sec": 8.0e4,
            "fastpath_candidate_evals_per_sec": 1.6e6,
            "candidate_eval_speedup": 20.0, "solves_per_sec": 10.0}]}))[
                "rows"]:
        parsed[row_key(row)] = metrics(row)
    if parsed != thr_base:
        failures.append(f"throughput row parse drifted: {parsed}")
    parsed = {}
    for row in json.loads(json.dumps({"rows": [{
            "kernel": "HF", "capacity_factor": 1.25,
            "milp_median_makespan_seconds": 4.0e-5,
            "proved_fraction": 1.0, "best_heuristic": "BP",
            "best_heuristic_median_makespan_seconds": 4.2e-5}]}))["rows"]:
        parsed[row_key(row)] = metrics(row)
    if parsed != fig7_base:
        failures.append(f"fig7 row parse drifted: {parsed}")
    parsed = {}
    for row in json.loads(json.dumps({"dag": [{
            "kernel": "CCSD-DAG", "dag_machine": "duplex-pcie",
            "winner": "LCMR", "dag_median_makespan_seconds": 15.0,
            "relaxed_median_makespan_seconds": 13.0,
            "dag_over_relaxed": 1.154}]}))["dag"]:
        parsed[row_key(row)] = metrics(row)
    if parsed != dag_base:
        failures.append(f"dag row parse drifted: {parsed}")
    parsed = {}
    for row in json.loads(json.dumps({"rows": [{
            "kernel": "CCSD", "solver": "SCMR",
            "tasks": [1000, 2000, 4000, 8000],
            "ms_per_solve": [0.2, 0.5, 1.1, 2.4], "slope": 1.1,
            "makespan_seconds": 1650.0}]}))["rows"]:
        parsed[row_key(row)] = metrics(row)
    if parsed != scaling_base:
        failures.append(f"scaling row parse drifted: {parsed}")

    if failures:
        for line in failures:
            print(f"FAIL {line}")
        print(f"bench-baseline self-test: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("bench-baseline self-test: all regression classes caught, "
          "benign growth passes")
    return 0


def main(argv):
    tolerance = DEFAULT_TOLERANCE
    throughput_tolerance = DEFAULT_THROUGHPUT_TOLERANCE
    update = False
    self_test = False
    positional = []
    for arg in argv[1:]:
        if arg == "--update":
            update = True
        elif arg == "--self-test":
            self_test = True
        elif arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--throughput-tolerance="):
            throughput_tolerance = float(arg.split("=", 1)[1])
        else:
            positional.append(arg)
    if self_test:
        return run_self_test()
    if len(positional) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, candidate_path = positional

    if update:
        shutil.copyfile(candidate_path, baseline_path)
        print(f"baseline refreshed: {candidate_path} -> {baseline_path}")
        return 0

    result = compare(load_rows(baseline_path), load_rows(candidate_path),
                     tolerance, throughput_tolerance)

    if result["improvements"]:
        print("improvements (refresh the baseline with --update to lock "
              "them in):")
        for line in result["improvements"]:
            print(f"  {line}")
    if result["new_rows"]:
        print("rows not in the baseline (covered after the next --update):")
        for line in result["new_rows"]:
            print(f"  {line}")
    if result["new_metrics"]:
        print("columns not in the baseline (covered after the next "
              "--update):")
        for line in result["new_metrics"]:
            print(f"  {line}")
    if result["missing"]:
        print("BASELINE ROWS/COLUMNS MISSING FROM THE CANDIDATE RUN:")
        for line in result["missing"]:
            print(f"  {line}")
    if result["regressions"]:
        print(f"PERFORMANCE REGRESSIONS (makespans > {100.0 * tolerance:.1f}% "
              f"above baseline, throughput > "
              f"{100.0 * throughput_tolerance:.0f}% below, slopes over "
              f"{SLOPE_CEILING}):")
        for line in result["regressions"]:
            print(f"  {line}")
    if result["regressions"] or result["missing"]:
        return 1

    print(f"perf guard ok: {result['checked']} metrics within tolerance of "
          f"{baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
