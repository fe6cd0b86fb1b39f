#!/usr/bin/env python3
"""Self-test of the session benchmark.

Usage, from the root of a source checkout:

    python3 sessionbench/selftest.py

Checks that BENCHMARK.json and sessionbench/design.json agree, then runs
every workload design.json describes (gated or not) in smoke mode (a handful of sessions, one second): twice
untraced and once traced. Each run must exit 0 and end in a result line
with exactly the contract's keys, no failed session, and every metric
BENCHMARK.json names for that mode, with its unit, and the untraced run
must use the tail percentile design.json records. The three runs of a
workload must print the same work fingerprint (same seed, same counts;
traced and untraced fire traces agree). Finally the benchmark must exit
non-zero without a result in a directory holding only BENCHMARK.json
and sessionbench/. Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = ["python3", os.path.join("sessionbench", "run.py")]


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def all_workloads(design):
    """Gated workloads (those in BENCHMARK.json) and ungated ones."""
    return {**design["workloads"], **design.get("ungated_workloads", {})}


def check_documents(bench, design):
    names = [w["name"] for w in bench["workloads"]]
    if names != list(design["workloads"]):
        fail("workloads differ between BENCHMARK.json and design.json")
    for name, w in all_workloads(design).items():
        for key in ("default_seed", "held_out_seed", "tail_percentile"):
            if key not in w:
                fail("design.json: workload %s has no %s" % (name, key))
    layer = [m["name"] for m in bench["per_layer"]]
    if sorted(layer) != sorted(design["per_layer"]):
        fail("per_layer metrics differ between BENCHMARK.json and "
             "design.json")
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, m in design["per_layer"].items():
        for metric, workload in m["moves"]:
            if metric not in e2e or workload not in all_workloads(design):
                fail("design.json: %s moves unknown %s on %s"
                     % (name, metric, workload))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if bounds.get("setup_s", 0) < max(bounds.values()):
        fail("setup_s must carry the largest bound")


def run(workload, seed, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        fail("%s exited %d\n%s" % (" ".join(cmd), p.returncode,
                                   p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    fingerprint = [l for l in lines if l.startswith("fingerprint ")]
    if len(fingerprint) != 1:
        fail("%s trace=%d printed no work fingerprint" % (workload, trace))
    tail = [m.group(1) for l in lines
            for m in [re.match(r"sessions \d+, tail p(\d+)", l)] if m]
    return json.loads(lines[-1]), fingerprint[0], tail


def check_result(workload, trace, result, expected):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s trace=%d: result keys %s" % (workload, trace,
                                              sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: %d of %d sessions failed"
             % (workload, trace, result["failed"], result["attempted"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s trace=%d: attempted must be a whole number >= 1"
             % (workload, trace))
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if sorted(got) != sorted(want):
        fail("%s trace=%d: metrics %s, expected %s"
             % (workload, trace, sorted(got), sorted(want)))
    for name, unit in want.items():
        m = got[name]
        if sorted(m) != ["unit", "value"] or m["unit"] != unit:
            fail("%s trace=%d: metric %s is %s, expected unit %s"
                 % (workload, trace, name, m, unit))
        if not isinstance(m["value"], (int, float)):
            fail("%s trace=%d: metric %s is not a number"
                 % (workload, trace, name))


def check_bare_directory():
    """Without src/ the benchmark must fail fast and print no result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "sessionbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run(RUN + ["--workload", "corpus", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("a directory without src/ must exit non-zero with no result")


def main():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    design = load(os.path.join(HERE, "design.json"))
    check_documents(bench, design)
    for name, w in all_workloads(design).items():
        seed = w["default_seed"]
        first, fp1, tail = run(name, seed, 0)
        check_result(name, 0, first, bench["end_to_end"])
        if tail != [str(w["tail_percentile"])]:
            fail("%s: tail percentile p%s differs from design.json"
                 % (name, tail))
        second, fp2, _ = run(name, seed, 0)
        check_result(name, 0, second, bench["end_to_end"])
        traced, fp3, _ = run(name, seed, 1)
        check_result(name, 1, traced, bench["per_layer"])
        if not fp1 == fp2 == fp3:
            fail("%s: work fingerprints differ across runs of seed %d\n"
                 "%s\n%s\n%s" % (name, seed, fp1, fp2, fp3))
        print("ok   %-12s %s" % (name, fp1))
    check_bare_directory()
    print("ok   bare directory exits non-zero without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
