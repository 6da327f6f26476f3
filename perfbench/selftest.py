#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes one short untraced and one
short traced run and checks that the result line is well formed, that
it reports every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json and only those, each with its declared unit and a finite
value, and that the run is correct. It then makes one run whose handler
answers a request with a wrong result and checks that the run fails:
exit status not 0 and "correct": false. Exits 0 when every check holds.
"""
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SECONDS = "2"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", SECONDS, "--trace", trace,
           *extra]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def check_result(label, result, declared):
    errors = []
    if result is None:
        return [label + ": no result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(label + ": result keys are " + ", ".join(sorted(result)))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(label + ": attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        errors.append(label + ": failed is not an integer")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(metrics)):
        errors.append(label + ": missing metric " + name)
    for name in sorted(set(metrics) - set(want)):
        errors.append(label + ": undeclared metric " + name)
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append("%s: %s has unit %r, declared %r"
                          % (label, name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("%s: %s has value %r" % (label, name, v))
    return errors


def main():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for w in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            label = "%s --trace %s" % (w["name"], trace)
            code, result, stderr = run(w["name"], trace)
            errs = check_result(label, result, declared)
            if code != 0 or not (result or {}).get("correct"):
                errs.append(label + ": run not correct (exit %d)" % code)
            errors += errs
            print(("ok   " if not errs else "FAIL ") + label, flush=True)

    w = bench["workloads"][0]["name"]
    code, result, _ = run(w, "0", "--inject-wrong-result")
    caught = code != 0 and result is not None and result["correct"] is False
    if not caught:
        errors.append("a wrong handler result was not caught (exit %d)" % code)
    print(("ok   " if caught else "FAIL ") + w + " --inject-wrong-result fails",
          flush=True)

    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
