#!/usr/bin/env python3
"""Golden scenario-corpus runner for sciduction_run.

Runs every checked-in scenario (corpus/*.cnf, corpus/*.smt2) through the
sciduction_run driver and enforces four contracts:

  1. Golden diff: the driver's stable output (the `s ` verdict lines —
     models and diagnostics are excluded by design, see the driver header)
     must match the scenario's `.expected` file byte for byte.
  2. Differential strategies: the verdict must be identical across the
     single / portfolio / shard / auto strategies (the substrate's
     determinism contract, now exercised on heterogeneous standard-format
     instances; `auto` is sciduction_run's default and lets the classifier
     pick).
  3. Model verification: the driver self-verifies every sat model by
     evaluation and emits `s MODEL-VERIFIED`; its absence after a sat
     verdict (or a MODEL-INVALID / STATUS-MISMATCH line) is a failure.
  4. Kind check: a single / portfolio / shard spec (feature suffixes
     included) must report that kind on the driver's `c strategy=` line,
     so a strategy the driver silently degrades fails. `auto` is exempt
     (the classifier picks), and so is a cache hit, where nothing ran.

Usage:
  tools/run_corpus.py [--driver build/sciduction_run] [--corpus corpus]
                      [--strategies single,portfolio,shard,auto,single+inprocess]
                      [--cache PATH] [--require-warm]
                      [--json OUT.json] [--regen]

A strategy spec may carry solver-feature suffixes joined with '+':
`single+inprocess` runs the single strategy with --inprocess, and
`portfolio+reduce+inprocess` runs the portfolio with both features on.
Feature runs participate in the differential pass like any other spec —
the verdict must match the canonical run (the core guarantee the
inprocessing PR makes: simplification never changes the answer).

--regen rewrites every .expected from the current single-strategy output
(use after adding a scenario; commit the result). --cache routes all runs
through a persistent query cache; --require-warm additionally asserts that
the pass's first driver run loaded persisted entries (the CI warm-pass
contract). Only the first run counts: every later run also loads what the
earlier runs of the same pass saved, so a sum over the pass cannot tell a
warm file from a missing one.
Exit status: 0 all green, 1 any mismatch/failure, 2 usage/setup error.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

EXPECTED_SUFFIX = ".expected"
RUN_TIMEOUT_S = 300


def stable_lines(stdout: str) -> list[str]:
    """The golden-diffed subset of driver output: the `s ` lines."""
    return [ln for ln in stdout.splitlines() if ln.startswith("s ")]


FEATURE_FLAGS = {"reduce": "--reduce", "inprocess": "--inprocess"}
CONCRETE_KINDS = ("single", "portfolio", "shard")


def parse_spec(spec: str) -> tuple[str, list[str]]:
    """Splits a strategy spec like `single+inprocess` into the base
    strategy name and the driver feature flags it requests."""
    base, *features = spec.split("+")
    unknown = [f for f in features if f not in FEATURE_FLAGS]
    if unknown:
        raise SystemExit(f"error: unknown feature(s) {unknown} in spec '{spec}' "
                         f"(known: {sorted(FEATURE_FLAGS)})")
    return base, [FEATURE_FLAGS[f] for f in features]


def run_driver(driver: Path, scenario: Path, spec: str, cache: str | None,
               extra: list[str]) -> tuple[list[str], str, float]:
    strategy, feature_flags = parse_spec(spec)
    cmd = [str(driver), str(scenario), "--strategy", strategy, "--no-model"] \
        + feature_flags + extra
    if cache:
        cmd += ["--cache", cache]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.monotonic() - start
    return stable_lines(proc.stdout), proc.stdout, elapsed


def kind_mismatch(spec: str, stdout: str) -> str | None:
    """The kind a concrete-strategy run reported instead of the one its
    spec asked for, or None when the run passes the kind check."""
    base, _ = parse_spec(spec)
    if base not in CONCRETE_KINDS:
        return None
    for line in stdout.splitlines():
        if line.startswith("c strategy="):
            fields = dict(f.split("=", 1) for f in line[2:].split() if "=" in f)
            if fields.get("cache_hit", "0") != "0" or fields["strategy"] == base:
                return None
            return fields["strategy"]
    return "(none)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--driver", default="build/sciduction_run")
    ap.add_argument("--corpus", default="corpus")
    ap.add_argument("--strategies", default="single,portfolio,shard,auto",
                    help="comma-separated; the first is the golden (canonical) run")
    ap.add_argument("--cache", default=None, help="persistent query-cache path for all runs")
    ap.add_argument("--require-warm", action="store_true",
                    help="fail unless the pass's first run reported persisted_loads > 0")
    ap.add_argument("--json", default=None, help="write per-scenario results as JSON")
    ap.add_argument("--regen", action="store_true",
                    help="regenerate every .expected from the canonical run")
    args = ap.parse_args()

    driver = Path(args.driver)
    corpus = Path(args.corpus)
    if not driver.exists():
        print(f"error: driver {driver} not found (build it first)", file=sys.stderr)
        return 2
    scenarios = sorted(p for p in corpus.iterdir()
                       if p.suffix in (".cnf", ".smt2") and p.is_file())
    if not scenarios:
        print(f"error: no scenarios under {corpus}/", file=sys.stderr)
        return 2
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    canonical = strategies[0]

    failures = 0
    persisted_loads = 0
    first_loads = None  # the first run sees only entries saved before the pass
    results = []
    for scenario in scenarios:
        expected_path = Path(str(scenario) + EXPECTED_SUFFIX)
        record = {"scenario": scenario.name, "strategies": {}, "ok": True}
        got, full, elapsed = run_driver(driver, scenario, canonical, args.cache, [])
        record["strategies"][canonical] = {"s_lines": got, "seconds": round(elapsed, 3)}
        loads = 0
        for line in full.splitlines():  # harvest cache counters from the diagnostics
            if line.startswith("c cache ") and "persisted_loads=" in line:
                loads += int(line.rsplit("persisted_loads=", 1)[1].split()[0])
        persisted_loads += loads
        if first_loads is None:
            first_loads = loads

        if args.regen:
            expected_path.write_text("\n".join(got) + "\n")
            print(f"regen  {scenario.name}: {' / '.join(got)}")
        else:
            if not expected_path.exists():
                print(f"FAIL   {scenario.name}: missing golden {expected_path.name} "
                      f"(run --regen and commit it)")
                record["ok"] = False
            else:
                want = [ln for ln in expected_path.read_text().splitlines() if ln]
                if got != want:
                    print(f"FAIL   {scenario.name}: golden mismatch\n"
                          f"       expected: {want}\n       got:      {got}")
                    record["ok"] = False

        runs = [(canonical, full)]
        verdict = got[0] if got else "s MISSING"
        if verdict.startswith("s SATISFIABLE") and "s MODEL-VERIFIED" not in got:
            print(f"FAIL   {scenario.name}: sat verdict without model verification: {got}")
            record["ok"] = False
        if any("MODEL-INVALID" in ln or "STATUS-MISMATCH" in ln for ln in got):
            print(f"FAIL   {scenario.name}: {got}")
            record["ok"] = False

        # Differential pass: every other strategy must reach the same verdict.
        for strategy in strategies[1:]:
            alt, alt_full, alt_elapsed = run_driver(driver, scenario, strategy, args.cache, [])
            runs.append((strategy, alt_full))
            record["strategies"][strategy] = {"s_lines": alt,
                                              "seconds": round(alt_elapsed, 3)}
            alt_verdict = alt[0] if alt else "s MISSING"
            if alt_verdict != verdict:
                print(f"FAIL   {scenario.name}: strategy {strategy} verdict "
                      f"'{alt_verdict}' != {canonical} verdict '{verdict}'")
                record["ok"] = False
            if alt_verdict.startswith("s SATISFIABLE") and "s MODEL-VERIFIED" not in alt:
                print(f"FAIL   {scenario.name}: {strategy} sat model unverified: {alt}")
                record["ok"] = False

        for spec, stdout in runs:
            ran = kind_mismatch(spec, stdout)
            if ran is not None:
                print(f"FAIL   {scenario.name}: strategy {spec} ran as {ran}")
                record["ok"] = False

        if record["ok"] and not args.regen:
            timings = ", ".join(f"{s} {d['seconds']}s" for s, d in record["strategies"].items())
            print(f"ok     {scenario.name}: {verdict[2:]} ({timings})")
        failures += 0 if record["ok"] else 1
        results.append(record)

    summary = {
        "scenarios": len(scenarios),
        "failures": failures,
        "strategies": strategies,
        "persisted_loads": persisted_loads,
        "first_persisted_loads": first_loads,
        "results": results,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n{len(scenarios)} scenarios, {failures} failures, "
          f"persisted_loads={persisted_loads} (first run {first_loads})")
    if args.require_warm and not first_loads:
        print("FAIL   --require-warm: the first run loaded no persisted cache entries",
              file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
