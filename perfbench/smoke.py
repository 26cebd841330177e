#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Builds the program as run.py does, runs every workload of BENCHMARK.json
at a tiny size (--tiny), untraced and traced, and fails unless
  * every run's checks pass,
  * every metric the program emits is listed in BENCHMARK.json with the
    same unit,
  * every workload emits every end_to_end metric, non-zero,
  * every derived figure the program prints is named in NOTES.md.
Takes a few seconds once the program is built.
"""

import os
import sys

import run


def main():
    spec = run.load_spec()
    listed = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    with open(os.path.join(run.HERE, "NOTES.md")) as f:
        notes = f.read()
    binary = run.build()
    if binary is None:
        return 3
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            tag = f"{workload} --trace {int(trace)}"
            _, record = run.run_program(binary, workload, seed=1, seconds=1,
                                        trace=trace, tiny=True)
            failures += [f"{tag}: check {c['name']} failed: {c['detail']}"
                         for c in record["checks"] if not c["ok"]]
            failures += [f"{tag}: {name} [{metric['unit']}] is not listed "
                         "in BENCHMARK.json with that unit"
                         for name, metric in record["metrics"].items()
                         if listed.get(name) != metric["unit"]]
            _, problems, _ = run.select_metrics(spec, record, trace)
            failures += [f"{tag}: {problem}" for problem in problems]
            failures += [f"{tag}: derived {name} is not named in NOTES.md"
                         for name in record["derived"]
                         if f"`{name}`" not in notes]
            print(f"{tag}: {len(record['metrics'])} metrics, "
                  f"{len(record['derived'])} derived, "
                  f"{len(record['checks'])} checks")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
