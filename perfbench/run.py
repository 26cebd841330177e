#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench_bin from source
(perfbench/CMakeLists.txt over src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, checks its outputs,
prints every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1; layers a workload does not exercise read 0).
A traced run also writes its spans to <build>/traces/<workload>-seed<n>.jsonl.

Simulated figures repeat exactly for a (workload, seed, seconds) triple.
expected.json holds them for the triples recorded there; a run of such a
triple must reproduce every one. --record runs the workload and stores
its simulated figures in expected.json instead of checking them.

Exit codes: 0 the run is correct; 1 a check failed or a metric is missing;
2 bad arguments; 3 the program could not be built (e.g. no src/ beside
perfbench/).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXPECTED = os.path.join(HERE, "expected.json")

# Figures that depend only on the seed and the amount of work: the
# simulation's results, never host timings.
SIMULATED = (
    "warmup_cycles", "hops_mean_over_floor", "msgs_per_delivery",
    "sim.msgs_per_cycle", "sim.cross_shard_rlink_pct",
    "sim.cross_shard_dlink_pct", "cast.msgs_per_publish",
    "cast.redundant_per_publish", "cast.last_hop_mean",
    "ringcast_miss_pct", "ringcast_p99_hops_over_floor",
    "cast.push_msgs", "cast.pull_requests", "cast.pull_answers",
    "cast.recovery_forwards", "cast.tracked_peak", "live_latency_p50_ticks",
    "live_latency_p99_ticks", "live_p99_hops_over_floor", "live_redundancy",
    "failed_ops_pct", "search_hit_pct", "search_flood_hit_pct",
    "search.ttlgossip.msgs_per_query", "search.flood.msgs_per_query",
    "search.cached_entries",
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def child_env():
    """Environment of the build and the program: temporary files stay in
    the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds perfbench_bin; returns its path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ next to perfbench/, nothing to build")
        return None
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, env=child_env())
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"perfbench: {' '.join(cmd)}: {error}")
            return None
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "perfbench_bin")


def run_program(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (human lines, record dict) or raises."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=child_env())
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench_bin exited {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def simulated_figures(record):
    """The record's simulated figures, with its operation counts."""
    figures = {"attempted": record["attempted"], "failed": record["failed"]}
    for group in ("metrics", "derived"):
        for name, metric in record[group].items():
            if name in SIMULATED:
                figures[name] = metric["value"]
    return figures


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def expected_key(workload, seed, seconds):
    return f"{workload} seed={seed} seconds={seconds:g}"


def check_expected(record, recorded):
    """Problems where the run's simulated figures differ from recorded."""
    got = simulated_figures(record)
    problems = []
    for name, want in sorted(recorded.items()):
        if got.get(name) != want:
            problems.append(f"simulated {name} = {got.get(name)}, recorded "
                            f"{want} for this seed (expected.json)")
    return problems


def select_metrics(spec, record, trace):
    """The contract's metric set for this mode, the problems found, and
    the per-layer metrics this workload does not exercise."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = record["metrics"]
    metrics, problems, idle = {}, [], []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            if trace:
                idle.append(name)
                metrics[name] = {"value": 0.0, "unit": unit}
            else:
                problems.append(f"metric {name}: not measured")
            continue
        value = got["value"]
        if got["unit"] != unit:
            problems.append(f"metric {name}: unit {got['unit']}, "
                            f"expected {unit}")
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name}: not a finite number")
            continue
        if not trace and value == 0:
            problems.append(f"metric {name}: reads 0")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems, idle


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's simulated figures in "
                             "expected.json instead of checking them")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        log(f"perfbench: cannot read BENCHMARK.json: {error}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")

    binary = build()
    if binary is None:
        return 3
    try:
        lines, record = run_program(binary, args.workload, args.seed,
                                    args.seconds, args.trace == 1)
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            ValueError) as error:
        log(f"perfbench: {args.workload}: {error}")
        return 1

    metrics, problems, idle = select_metrics(spec, record, args.trace == 1)
    if record["attempted"] < 1:
        problems.append("nothing attempted")
    for line in lines:
        print(line)
    expected = load_expected()
    key = expected_key(args.workload, args.seed, args.seconds)
    if args.record:
        expected[key] = simulated_figures(record)
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"perfbench: recorded {len(expected[key])} figures for {key}")
    elif key in expected:
        checked = check_expected(record, expected[key])
        problems += checked
        print(f"  [{'FAIL' if checked else 'ok'}] simulated figures match "
              f"the {len(expected[key])} recorded for {key}")
    if idle:
        print(f"  (not exercised by {args.workload}, reported as 0: "
              f"{', '.join(idle)})")
    for problem in problems:
        print(f"  [FAIL] {problem}")
    correct = bool(record["correct"]) and not problems
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
