#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end-to-end metric, with its unit, and a
    traced run every per-layer metric, each as the last-line JSON result;
  * the correctness gate passes on an honest run and fails when its
    reference is altered by one ulp (--tamper 1);
  * two runs with one seed send identical traffic (the digest notes).
Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke", "1"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result, defs, label):
    got = result["metrics"]
    want = {d["name"]: d["unit"] for d in defs}
    if set(got) != set(want):
        raise AssertionError("%s: metrics %s, expected %s" %
                             (label, sorted(got), sorted(want)))
    for name, unit in want.items():
        entry = got[name]
        if entry.get("unit") != unit:
            raise AssertionError("%s: %s has unit %r, expected %r" %
                                 (label, name, entry.get("unit"), unit))
        if not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            raise AssertionError("%s: %s is not a finite number" %
                                 (label, name))


def traffic(notes):
    return [re.sub(r"^# \w+ ", "", n) for n in notes if " traffic " in n]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        plain, notes = run(workload, 7, 0)
        check_metrics(plain, bench["end_to_end"], workload + " untraced")
        for name, entry in plain["metrics"].items():
            if entry["value"] == 0:
                raise AssertionError("%s: end-to-end %s is 0" %
                                     (workload, name))
        if not plain["correct"]:
            raise AssertionError("%s: the gate failed an honest run" %
                                 workload)
        again, again_notes = run(workload, 7, 0)
        if traffic(notes) and \
                [t.split(":", 1)[0] + t.split("digest")[-1]
                 for t in traffic(notes)] != \
                [t.split(":", 1)[0] + t.split("digest")[-1]
                 for t in traffic(again_notes)]:
            raise AssertionError("%s: one seed sent different traffic: %s vs %s"
                                 % (workload, traffic(notes),
                                    traffic(again_notes)))
        traced, _ = run(workload, 7, 1)
        check_metrics(traced, bench["per_layer"], workload + " traced")
        if not traced["correct"]:
            raise AssertionError("%s: traced run failed the gate" % workload)
        tampered, _ = run(workload, 7, 0, "--tamper", "1")
        if tampered["correct"]:
            raise AssertionError("%s: the gate passed an altered reference" %
                                 workload)
        print("smoke %s: ok (%d end-to-end, %d per-layer metrics; gate "
              "passes honest runs and fails a one-ulp change)" %
              (workload, len(bench["end_to_end"]), len(bench["per_layer"])))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print("smoke: FAILED: %s" % err, file=sys.stderr)
        sys.exit(1)
