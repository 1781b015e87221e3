#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of dts.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 10 \
        --trace 0

Builds the driver (perfbench/CMakeLists.txt, on the repository's own
dts_core) into .bench_build/perfbench, runs one workload in its own
process, checks its outputs and prints every metric by name with its
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1. Workloads, metrics and the layer-to-metric map are
described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["solve-large", "solve-search", "serve-mixed"]
# Failures of documented program defects (perfbench/NOTES.md, "Known
# defects"). They count in `failed` like any other; a failure outside
# these classes makes the run incorrect.
#   serve-mixed: ROADMAP item 1, warm answers to permuted requests and
#   DAG / edge-free key collisions;
#   solve workloads: validate_schedule's exact-instant memory sweep
#   against the engine's epsilon compare.
KNOWN_DEFECT_COUNTS = ("mismatches.permuted", "mismatches.twin",
                       "invalid.epsilon-memory")
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets CMake decide what is out of date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} is not a dts source tree "
                           "(no CMakeLists.txt or src/)")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake is not on PATH")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run([cmake, "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([cmake, "--build", str(BUILD), "-j4",
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "perfbench_driver"


def source_hash():
    """Digest of every file the driver is built from: determinism records
    of one program version never meet those of another."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    for path in (ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def determinism_record(raw):
    """The outputs that must repeat exactly for a seed."""
    counts = raw["timed"]["counts"]
    return {
        "request_digest": raw["request_digest"],
        "output_digest": raw["timed"]["digest"],
        "makespan_ratio": repr(raw["timed"]["makespan_ratio"]),
        "service.solves": counts.get("service.solves", 0),
        "service.mismatches": counts.get("service.mismatches", 0),
        "exact.bb_nodes": sum(v for k, v in counts.items()
                              if k.startswith("evaluations.branch-bound")),
        "milp.evaluations": counts.get("evaluations.milp", 0),
    }


def check_determinism(args, raw):
    """Compares this run with an earlier run of the same seed, if any.
    Returns a list of differences (empty when none or first run)."""
    if raw["nondeterministic"]:
        return ["a repeated request gave a different output within the run"]
    record = determinism_record(raw)
    store = BUILD / "determinism"
    store.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}-{args.seed}-{args.seconds}-{source_hash()}.json"
    path = store / key
    if path.is_file():
        before = json.loads(path.read_text())
        return [f"{k}: {before.get(k)} then {v}"
                for k, v in record.items() if before.get(k) != v]
    path.write_text(json.dumps(record, indent=1))
    return []


def unexpected_failures(raw):
    """Failed requests outside the documented known-defect classes."""
    counts = raw["timed"]["counts"]
    # An error reply to a request the library solves is a mismatch too,
    # so these counts hold every known-defect failure exactly once.
    known = sum(counts.get(name, 0) for name in KNOWN_DEFECT_COUNTS)
    return raw["timed"]["failed"] - known


def run(args):
    driver = build()
    out_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{args.trace}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=DRIVER_TIMEOUT_S)
    raw = json.loads((out_dir / "raw.json").read_text())

    differences = check_determinism(args, raw)
    if differences:
        log("determinism check failed for seed", args.seed)
        for d in differences:
            log("  ", d)
        return 3

    e2e, tail = metrics.end_to_end(raw)
    timed = raw["timed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"clients {raw['clients']}  pool workers {raw['workers']}  "
          f"requests {timed['attempted']}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    print(f"  latency_tail_ms is p{tail['tail_percentile']:.1f} of "
          f"{tail['samples']} samples (10 beyond it)")
    print(f"  error_rate {timed['failed'] / timed['attempted']:.6f} "
          f"({timed['failed']} of {timed['attempted']} requests)")
    for name, value in sorted(timed["counts"].items()):
        print(f"  count {name} = {value}")
    for note in dict.fromkeys(raw["notes"]):
        print(f"  note: {note}")

    if args.trace:
        passes = {}
        for w in WORKLOADS:
            spans = metrics.read_spans(out_dir / f"spans-{w}.tsv")
            counts = (raw["traced"]["counts"] if w == args.workload
                      else raw["reduced"][w]["counts"])
            passes[w] = metrics.Pass(spans, counts)
        layers = metrics.per_layer(args.workload, passes,
                                   e2e["latency_p50_ms"][0])
        print("per-layer (traced run; source workload in brackets)")
        for name, (value, unit, source) in layers.items():
            print(f"  {name:<32} {value:>16.6f} {unit:<6} [{source}]")
        reported = {k: (v, u) for k, (v, u, _) in layers.items()}
    else:
        reported = e2e

    unexpected = unexpected_failures(raw)
    result = {
        "correct": unexpected == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("perfbench:", e)
        return 2


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
