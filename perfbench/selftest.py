#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny-size mode (a few seconds per case).

    python3 perfbench/selftest.py

Every workload must pass all of its checks untraced and traced and report
every metric BENCHMARK.json lists; the must-fire cases (one flipped payload
byte and one silently stalled stream on every workload, one dropped HTTP
response on web-adapt) must fail the run. Exits non-zero on the first case that does not behave.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(workload, trace, inject=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    failures = []

    def check(name, ok, detail=""):
        print("%-50s %s" % (name, "ok" if ok else "FAIL " + detail))
        if not ok:
            failures.append(name)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, result, err = run(workload, trace)
            label = "%s trace=%s" % (workload, trace)
            check(label + " passes", code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, err[-400:])
            if result is not None:
                missing = [m["name"] for m in wanted[trace]
                           if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
                check(label + " reports every metric", not missing, str(missing))
        code, result, _ = run(workload, "0", inject="flip-byte")
        check(workload + " flipped byte fails the run",
              code != 0 and result is not None and not result["correct"] and result["failed"] >= 1)
        code, result, _ = run(workload, "0", inject="stall")
        check(workload + " stalled stream fails the run",
              code != 0 and result is not None and not result["correct"] and result["failed"] >= 1)
    code, result, _ = run("web-adapt", "0", inject="drop-response")
    check("web-adapt dropped response fails the run",
          code != 0 and result is not None and not result["correct"] and result["failed"] >= 1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
