#!/usr/bin/env python3
"""The repository benchmark: builds the driver against the Release
sciduction library, runs one seeded workload, checks every answer, and
prints the metrics.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steady [--seconds S]
  python3 perfbench/run.py --selftest

Workloads: corpus, bv_miters, app_loops, daemon_mix (see README.md).

A run's last stdout line is one JSON object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it carries the run's detail (sample counts, failures, the
machine record: nproc, compiler, build type, commit, load average).

--steady repeats every workload with seeds 1..10 and prints the median
and quartiles of each end-to-end metric, flagging a spread (interquartile
range over median) beyond the metric's bound; it then runs each workload
traced twice with one seed and fails unless the deterministic counters
repeat exactly. --selftest checks the input generators (same seed, same
bytes; status known by construction).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; runs write only below it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
STEADY_RUNS = 10

# Per-layer counters that must repeat exactly across runs of one seed.
DETERMINISTIC = [
    "sat.conflicts", "sat.decisions", "sat.propagations", "smt.cnf_vars", "smt.cnf_clauses",
    "substrate.solver_runs", "ogis.iterations", "ogis.oracle_queries",
    "invgen.induction_rounds", "hybrid.simulator_queries", "service.nodes_per_request",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def check_sources():
    for need in ("CMakeLists.txt", "src", "corpus"):
        if not (ROOT / need).exists():
            fail(f"no sciduction sources here ({ROOT / need} is missing)")


def build_dir():
    return (Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures once, then (re)builds the driver and the daemon."""
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_driver",
                    "sciductiond"], check=True, stdout=sys.stderr)
    return out / "perfbench_driver", out / "sciduction" / "sciductiond"


def commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(driver, daemon, workload, seed, seconds, trace):
    """Runs one workload; returns the driver's parsed JSON line."""
    work = build_dir() / "perfbench-run"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--corpus", str(ROOT / "corpus"), "--daemon",
           str(daemon)]
    # Its own session, so a timeout stops the daemon it spawned too.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver timed out on {workload} after {RUN_TIMEOUT_S} s")
    sys.stderr.write(stderr)
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        fail(f"driver failed on {workload} (exit {proc.returncode})")
    return json.loads(lines[-1])


def contract_line(spec, raw, trace):
    """The contract's last line: exactly correct/attempted/failed/metrics,
    with every metric BENCHMARK.json names for this mode, in its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"driver did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def steady(spec, driver, daemon, args):
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    report = {"machine": None, "workloads": {}}
    for w in [entry["name"] for entry in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, STEADY_RUNS + 1):
            raw = run_driver(driver, daemon, w, seed, seconds, False)
            report["machine"] = dict(raw["detail"]["machine"], commit=commit())
            if not raw["correct"]:
                ok = False
                print(f"{w} seed {seed}: INVALID run: {raw['detail']['failures']}")
            for m in spec["end_to_end"]:
                values[m["name"]].append(raw["metrics"][m["name"]]["value"])
        rows = {}
        print(f"\n{w}: {STEADY_RUNS} runs, seeds 1..{STEADY_RUNS}")
        print(f"  {'metric':<16} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            q1, med, q3, s = spread(values[m["name"]])
            flag = "  SPREAD > BOUND" if s > m["bound"] else ""
            print(f"  {m['name']:<16} {q1:12.6g} {med:12.6g} {q3:12.6g} {s:8.4f} {m['bound']:6.2f}"
                  f"{flag}")
            rows[m["name"]] = {"q1": q1, "median": med, "q3": q3, "spread": s,
                               "values": values[m["name"]]}
        # Determinism: the deterministic counters of two traced runs of one
        # seed must be identical.
        first = run_driver(driver, daemon, w, 1, seconds, True)
        second = run_driver(driver, daemon, w, 1, seconds, True)
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                ok = False
                print(f"  DETERMINISM FAILED: {name} {a} != {b}")
        if not (first["correct"] and second["correct"]):
            ok = False
            print("  INVALID traced run")
        print("  deterministic counters: " + ", ".join(
            f"{n}={first['metrics'][n]['value']:g}" for n in DETERMINISTIC))
        report["workloads"][w] = {"end_to_end": rows,
                                  "per_layer": {k: v["value"] for k, v in first["metrics"].items()}}
    out = build_dir() / "perfbench-steady.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nmachine: {json.dumps(report['machine'])}\nreport: {out}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    check_sources()
    spec = load_spec()
    driver, daemon = build()
    if args.selftest:
        return subprocess.run([str(driver), "--selftest"], check=False).returncode
    if args.steady:
        return steady(spec, driver, daemon, args)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    start = time.monotonic()
    raw = run_driver(driver, daemon, args.workload, args.seed,
                     args.seconds or spec["run_seconds"], bool(args.trace))
    detail = dict(raw["detail"], workload=args.workload, seed=args.seed,
                  run_s=time.monotonic() - start)
    detail["machine"] = dict(detail["machine"], commit=commit())
    line = contract_line(spec, raw, bool(args.trace))
    print("perfbench detail " + json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
