#!/usr/bin/env python3
"""Compares the repo benchmark between two checkouts, run in alternating pairs.

    scripts/compare_bench.py --parent DIR --change DIR [--workloads a,b]
        [--pairs 10] [--seed 1] [--traced-pairs 0] [--json OUT]

Each checkout builds and runs its own perfbench/run.py (the benchmark
code of both sides should be identical; the script warns when the two
BENCHMARK.json files differ), always for BENCHMARK.json's run_seconds.
For every workload it runs --pairs (at least 10) parent/change pairs,
alternating which side runs first, with --trace 0, then --traced-pairs
pairs with --trace 1 for the per-layer metrics.

For every (workload, end-to-end metric) it prints each side's median and
quartiles, the pairs the change won (ties count for neither), and a
verdict under the rules of BENCHMARK.json's bounds:

  gain        at least 10 pairs ran, the change won >= 9/10 of them and
              its median beats the parent's by more than the parent's
              interquartile range
  regression  the change's median is worse than the parent's by more
              than the metric's bound (a fraction of the parent median)
  unresolved  neither, and the parent's interquartile range is wider
              than the bound, so "no worse" cannot be told apart from
              noise (unless every change run beats every parent run)
  within bound  none of the above

Where a workload prints perfbench's host-speed probe, the same
quartiles, medians and pair wins (no verdict: the probe has no bound)
are shown for host_slowdown and the unscaled ops_per_s_host next to the
verdicts, so a move of the scaled ops_per_s can be traced to the
operation or to the probe.

A workload whose runs failed a correctness check, or whose change runs
fail a larger share of operations, is flagged as such. Per-layer
metrics (traced pairs) get medians, the change/parent ratio and pair
wins only: they carry no bound. Where a run prints perfbench's
host_slowdown (the host-speed probe ops_per_s is scaled by), its
per-layer timings are divided by it, so a busy host does not read as a
slower layer.

--json adds one comparison per workload to the record: the machine (CPU
count and model, compiler), the settings, every run and every summary.
Comparisons already in the file stay; the script refuses to start when
the file already holds one for a requested (workload, seed), so a rerun
never drops earlier runs from a record. Exit status: 0 when every run
was correct and nothing regressed, 1 otherwise, 2 on bad arguments.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def machine():
    """CPU count, CPU model and compiler of the host the runs used."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        done = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        compiler = done.stdout.splitlines()[0].strip() or compiler
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": compiler, "os": platform.platform()}


# Per-layer units that are host timings, and the figure perfbench prints
# for how slowly the host ran (1.0 = the reference machine when quiet).
TIME_UNITS = ("ms", "s")
HOST_SLOWDOWN = "host_slowdown"
# The host probe's printed figures and which way is better: how slowly
# the host ran, and the operation rate before scaling by it.
OPS_HOST = "ops_per_s_host"
HOST_PROBE = ((HOST_SLOWDOWN, "lower"), (OPS_HOST, "higher"))
# Fewest pairs a gain verdict may rest on (the choosing-metrics rule).
MIN_PAIRS = 10


def printed_value(lines, name):
    """The value of a `  name  value unit ...` line run.py printed."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            try:
                return float(parts[1])
            except ValueError:
                return None
    return None


def run_once(checkout, workload, seed, seconds, trace):
    """One run.py invocation; returns its record (metrics may be empty)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", "1" if trace else "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        record = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
        log(done.stderr[-2000:])
    return {"exit": done.returncode, "correct": bool(record["correct"]),
            "attempted": record["attempted"], "failed": record["failed"],
            "wall_s": round(wall, 2),
            HOST_SLOWDOWN: printed_value(lines, HOST_SLOWDOWN),
            OPS_HOST: printed_value(lines, OPS_HOST),
            "metrics": {name: m["value"]
                        for name, m in record["metrics"].items()}}


def run_pairs(sides, workload, seed, seconds, pairs, trace):
    """Alternating pairs: pair i runs the parent first when i is even."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], workload, seed, seconds, trace)
            run["pair"] = i
            runs[side].append(run)
            log(f"  {workload} {'traced ' if trace else ''}pair {i + 1}/"
                f"{pairs} {side}: exit {run['exit']}, "
                f"{run['wall_s']:.0f} s")
    return runs


def quartiles(values):
    """(q1, median, q3); the inclusive method suits ten-run samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def paired(parent, change, better):
    """Each side's quartiles, the change's move and its pair wins."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {"better": better,
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "change_vs_parent": (cm - pm) / abs(pm) if pm else 0.0,
            "pairs": len(parent),
            "wins": sum(1 for p, c in zip(parent, change)
                        if sign * (c - p) > 0),
            "losses": sum(1 for p, c in zip(parent, change)
                          if sign * (c - p) < 0)}


def summarise(metric, parent_runs, change_runs):
    """Medians, quartiles, pair wins and the verdict for one metric."""
    name = metric["name"]
    parent = [r["metrics"][name] for r in parent_runs if name in r["metrics"]]
    change = [r["metrics"][name] for r in change_runs if name in r["metrics"]]
    if not parent or len(parent) != len(change):
        return {"metric": name, "verdict": "missing"}
    row = {"metric": name, "unit": metric["unit"],
           **paired(parent, change, metric["better"]),
           "bound": metric.get("bound")}
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pm = row["parent"]["median"]
    spread = row["parent"]["q3"] - row["parent"]["q1"]
    gain = sign * (row["change"]["median"] - pm)
    bound = row["bound"]
    if len(parent) >= MIN_PAIRS and row["wins"] >= 0.9 * len(parent) and \
            gain > spread:
        verdict = "gain"
    elif bound is not None and -gain > bound * abs(pm):
        verdict = "regression"
    elif (bound is not None and spread > bound * abs(pm) and
          not min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    row["verdict"] = verdict
    return row


def summarise_host_probe(parent_runs, change_runs):
    """host_slowdown and ops_per_s_host summarised like an end-to-end
    metric but without a verdict; empty unless every run printed them."""
    rows = []
    for name, better in HOST_PROBE:
        parent = [r.get(name) for r in parent_runs]
        change = [r.get(name) for r in change_runs]
        if not parent or len(parent) != len(change) or \
                None in parent + change:
            continue
        rows.append({"metric": name, **paired(parent, change, better)})
    return rows


def layer_values(runs, metric):
    """One per-layer metric per run; timings over the run's
    host_slowdown when it printed one."""
    values = []
    for run in runs:
        value = run["metrics"].get(metric["name"], 0.0)
        if metric["unit"] in TIME_UNITS and run.get(HOST_SLOWDOWN):
            value /= run[HOST_SLOWDOWN]
        values.append(value)
    return values


def summarise_layers(spec, parent_runs, change_runs):
    rows = []
    normalised = all(r.get(HOST_SLOWDOWN) for r in parent_runs + change_runs)
    for metric in spec["per_layer"]:
        parent = layer_values(parent_runs, metric)
        change = layer_values(change_runs, metric)
        if not parent or not any(parent + change):
            continue  # not exercised by this workload
        sign = 1.0 if metric["better"] == "higher" else -1.0
        pm, cm = statistics.median(parent), statistics.median(change)
        rows.append({"metric": metric["name"], "unit": metric["unit"],
                     "better": metric["better"],
                     "host_normalised": (normalised and
                                         metric["unit"] in TIME_UNITS),
                     "parent_median": pm, "change_median": cm,
                     "change_over_parent": cm / pm if pm else None,
                     "wins": sum(1 for p, c in zip(parent, change)
                                 if sign * (c - p) > 0),
                     "pairs": len(parent)})
    return rows


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(spec, sides, workload, args):
    seconds = spec["run_seconds"]
    log(f"{workload}: {args.pairs} pairs, seed {args.seed}, {seconds:g} s")
    runs = run_pairs(sides, workload, args.seed, seconds, args.pairs,
                     trace=False)
    traced = (run_pairs(sides, workload, args.seed, seconds,
                        args.traced_pairs, trace=True)
              if args.traced_pairs else {"parent": [], "change": []})
    correct = all(r["correct"] and r["exit"] == 0
                  for side in runs.values() for r in side)
    failures = {side: failed_share(side_runs)
                for side, side_runs in runs.items()}
    return {"workload": workload, "seed": args.seed, "seconds": seconds,
            "machine": machine(), "pairs": args.pairs,
            "traced_pairs": args.traced_pairs, "correct": correct,
            "failed_share": failures,
            "more_failures": failures["change"] > failures["parent"],
            "end_to_end": [summarise(m, runs["parent"], runs["change"])
                           for m in spec["end_to_end"]],
            "host_probe": summarise_host_probe(runs["parent"],
                                               runs["change"]),
            "per_layer": summarise_layers(spec, traced["parent"],
                                          traced["change"]),
            "runs": runs, "traced_runs": traced}


def fmt(value):
    if not isinstance(value, (int, float)):
        return str(value)
    return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def print_comparison(result):
    print(f"\n== {result['workload']} (seed {result['seed']}, "
          f"{result['seconds']:g} s, {result['pairs']} pairs) "
          f"correct={result['correct']} failed share parent "
          f"{result['failed_share']['parent']:.4g} change "
          f"{result['failed_share']['change']:.4g}")
    print(f"  {'metric':<22} {'parent q1/med/q3':<30} "
          f"{'change q1/med/q3':<30} {'change':>8} {'wins':>6}  verdict")
    for row in result["end_to_end"] + result["host_probe"]:
        if row.get("verdict") == "missing":
            print(f"  {row['metric']:<22} missing")
            continue
        p, c = row["parent"], row["change"]
        print(f"  {row['metric']:<22} "
              f"{fmt(p['q1']) + ' / ' + fmt(p['median']) + ' / ' + fmt(p['q3']):<30} "
              f"{fmt(c['q1']) + ' / ' + fmt(c['median']) + ' / ' + fmt(c['q3']):<30} "
              f"{row['change_vs_parent']:>+8.1%} "
              f"{str(row['wins']) + '/' + str(row['pairs']):>6}  "
              f"{row.get('verdict', 'host probe, no verdict')}")
    if result["per_layer"]:
        normalised = any(row["host_normalised"]
                         for row in result["per_layer"])
        print(f"  per layer ({result['traced_pairs']} traced pairs, "
              f"medians{'; timings / host_slowdown' if normalised else ''}"
              f"):")
        for row in result["per_layer"]:
            ratio = row["change_over_parent"]
            print(f"    {row['metric']:<34} {fmt(row['parent_median']):>10} "
                  f"-> {fmt(row['change_median']):>10} {row['unit']:<6}"
                  f" {'' if ratio is None else f'x{ratio:.3f}':<8}"
                  f" {row['wins']}/{row['pairs']} won")


def load_record(path):
    """The --json record at `path`; an empty one if there is no file."""
    if not os.path.exists(path):
        return {"comparisons": []}
    with open(path) as f:
        return json.load(f)


def write_json(path, meta, results):
    document = load_record(path)
    document.update(meta)
    document["comparisons"] += results
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workloads",
                        help="comma-separated (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", help="write or update this JSON file")
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    try:
        spec = load_spec(sides["change"])
        if load_spec(sides["parent"]) != spec:
            log("warning: the two checkouts' BENCHMARK.json differ; "
                "using the change's")
    except (OSError, ValueError) as error:
        parser.error(f"cannot read BENCHMARK.json: {error}")
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {names}")
    if args.pairs < MIN_PAIRS or args.traced_pairs < 0:
        parser.error(f"--pairs must be >= {MIN_PAIRS} and "
                     f"--traced-pairs >= 0")
    if args.json:
        try:
            held = {(r["workload"], r["seed"])
                    for r in load_record(args.json)["comparisons"]}
        except (OSError, ValueError, KeyError) as error:
            parser.error(f"cannot read {args.json}: {error}")
        clash = [w for w in workloads if (w, args.seed) in held]
        if clash:
            parser.error(f"{args.json} already holds seed {args.seed} "
                         f"comparisons for {clash}; write another file")

    results = [compare(spec, sides, w, args) for w in workloads]
    for result in results:
        print_comparison(result)
    if args.json:
        write_json(args.json, {"rule": "gain: at least 10 pairs, change wins "
                                       ">= 9/10 of them and its median "
                                       "beats the parent's by more than the "
                                       "parent's IQR; regression: median "
                                       "worse by more than the "
                                       "BENCHMARK.json bound"},
                   results)
    bad = [r["workload"] for r in results
           if not r["correct"] or r["more_failures"] or
           any(row["verdict"] in ("regression", "missing")
               for row in r["end_to_end"])]
    if bad:
        log(f"not clean: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
