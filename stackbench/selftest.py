#!/usr/bin/env python3
"""The benchmark's own test.

    python3 stackbench/selftest.py

Run from the root of a checkout. Builds the benchmark like run.py, then
checks, for every workload, that a deliberately corrupted oracle entry
makes the run exit with code 3 and print the offending tuple and no
result — both when the corruption is caught by the untimed correctness
phase and when only the per-op check of the timed loop can catch it.
It also checks that one clean data_transfer run prints every end-to-end
metric, and that a short traced run of every workload prints every
per-layer metric and attributes work only to the layers the workload
reaches: no cache hit and at least one PDP call per op on fleet_submit,
no gram.* or core.cache.* span on data_transfer.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def stackbench(*flags):
    command = [os.path.join(run.BUILD_DIR, "stackbench"), "--seed", "3",
               "--seconds", "1", "--workdir", run.WORK_DIR] + list(flags)
    return subprocess.run(command, capture_output=True, text=True, timeout=170)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {}
    return json.loads(lines[-1])


def span_layers(workload):
    path = os.path.join(run.WORK_DIR, "spans-%s.tsv" % workload)
    with open(path) as f:
        return {line.split("\t")[1] for line in list(f)[1:]}


# Per workload: what its traced run must show, as (description, check).
TRACE_CHECKS = {
    "gram_manage": [
        ("core.cache.hit_pct > 0", lambda m, l: m["core.cache.hit_pct"] > 0),
        ("gram.server spans", lambda m, l: "gram.server" in l),
    ],
    "fleet_submit": [
        ("core.cache.hit_pct == 0", lambda m, l: m["core.cache.hit_pct"] == 0),
        ("core.pdp.calls_per_op >= 1",
         lambda m, l: m["core.pdp.calls_per_op"] >= 1),
    ],
    "data_transfer": [
        ("no gram.*/core.cache.* span",
         lambda m, l: not any(n.startswith(("gram.", "core.cache")) for n in l)),
        ("core.datapath.check_block spans",
         lambda m, l: "core.datapath.check_block" in l),
    ],
}


def main():
    if not run.build():
        return 2
    failures = []
    for workload in WORKLOADS:
        for mode in ["setup", "timed"]:
            done = stackbench("--workload", workload, "--trace", "0",
                              "--corrupt-oracle", mode)
            lines = done.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            ok = (done.returncode == 3 and last.startswith("oracle mismatch: ")
                  and not any(line.startswith("{") for line in lines))
            print("%-14s corrupt=%-5s exit=%d %s" %
                  (workload, mode, done.returncode, last[:160]))
            if not ok:
                failures.append("%s/%s" % (workload, mode))

    done = stackbench("--workload", "data_transfer", "--trace", "0")
    result = result_of(done)
    metrics = result.get("metrics", {})
    clean = (done.returncode == 0 and result.get("correct") is True and
             result.get("failed") == 0 and sorted(metrics) == sorted(END_TO_END))
    print("data_transfer  clean run exit=%d metrics=%s" %
          (done.returncode, ",".join(sorted(metrics))))
    if not clean:
        failures.append("data_transfer/clean")

    for workload in WORKLOADS:
        done = stackbench("--workload", workload, "--trace", "1")
        result = result_of(done)
        metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        if result.get("correct") is True and sorted(metrics) == sorted(PER_LAYER):
            layers = span_layers(workload)
            bad = [name for name, check in TRACE_CHECKS[workload]
                   if not check(metrics, layers)]
        else:
            layers, bad = set(), ["every per-layer metric printed"]
        print("%-14s traced run exit=%d spans=%s%s" %
              (workload, done.returncode, ",".join(sorted(layers)),
               " FAILED: " + "; ".join(bad) if bad else ""))
        if bad:
            failures.append("%s/traced" % workload)

    if failures:
        print("FAILED: " + " ".join(failures))
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
