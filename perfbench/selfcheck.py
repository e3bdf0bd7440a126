#!/usr/bin/env python3
"""Self-check for the benchmark: a short mode of every workload, twice.

    python3 perfbench/selfcheck.py

For each workload, runs the driver for 1 second at one fixed seed, twice
untraced and twice traced, and asserts that
  * the last stdout line is the result object with exactly the contract's
    keys, and every metric BENCHMARK.json names is present with its unit;
  * no op failed (error_rate 0) and the result is marked correct;
  * the exact counts repeat between the two runs: coverage_ratio (untraced)
    and the per-op counts of the traced ledger (apps.*.count,
    orchestrator.* counts, search.waves / search.items, wire.*.plan_bytes).
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

SEED = "7"
EXACT = [
    "apps.build.count", "apps.run.count",
    "orchestrator.leases_granted", "orchestrator.workers_spawned",
    "orchestrator.leases_split", "search.waves", "search.items",
    "wire.pipe.plan_bytes", "wire.shm.plan_bytes", "wire.tcp.plan_bytes",
]


def contract():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_once(driver, epa_cli, workload, trace):
    cmd = [driver, "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace), "--epa-cli", epa_cli,
           "--out", os.path.join(bench.build_dir(), "selfcheck")]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (
            " ".join(cmd[:5]), out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(res, names, where):
    errors = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(res)))
    if not res.get("correct") or res.get("failed") != 0:
        errors.append("%s: %s of %s ops failed" % (
            where, res.get("failed"), res.get("attempted")))
    got = res.get("metrics", {})
    for name, unit in names.items():
        if name not in got:
            errors.append("%s: metric %s missing" % (where, name))
        elif got[name]["unit"] != unit:
            errors.append("%s: %s unit %s, expected %s" % (
                where, name, got[name]["unit"], unit))
    extra = set(got) - set(names)
    if extra:
        errors.append("%s: unexpected metrics %s" % (where, sorted(extra)))
    return errors


def main():
    e2e, layers, workloads = contract()
    driver, epa_cli = bench.build(bench.build_dir())
    errors = []
    for w in workloads:
        plain = [run_once(driver, epa_cli, w, 0) for _ in range(2)]
        traced = [run_once(driver, epa_cli, w, 1) for _ in range(2)]
        for i, res in enumerate(plain):
            errors += check_result(res, e2e, "%s untraced #%d" % (w, i + 1))
        for i, res in enumerate(traced):
            errors += check_result(res, layers, "%s traced #%d" % (w, i + 1))
        a, b = (r["metrics"]["coverage_ratio"]["value"] for r in plain)
        if a != b:
            errors.append("%s: coverage_ratio %s then %s" % (w, a, b))
        for name in EXACT:
            a, b = (r["metrics"].get(name, {}).get("value") for r in traced)
            if a != b:
                errors.append("%s: %s %s then %s" % (w, name, a, b))
        print("selfcheck: %s: %d+%d ops untraced, %d+%d traced" % (
            w, plain[0]["attempted"], plain[1]["attempted"],
            traced[0]["attempted"], traced[1]["attempted"]))
    for e in errors:
        print("selfcheck: FAIL " + e)
    print("selfcheck: %s" % ("PASS" if not errors else "FAIL"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
