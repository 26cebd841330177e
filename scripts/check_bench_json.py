#!/usr/bin/env python3
"""Validates BENCH_*.json records emitted by the figure benches.

Every bench invoked with --json PATH writes one record. This checker is
the machine-readable contract: it fails (exit 1) if a file does not
parse, misses a required key, or carries a malformed scale/series
section. CI runs it over every bench's --quick output.

Usage: check_bench_json.py FILE [FILE...]
"""
import json
import sys

REQUIRED_TOP_LEVEL = {
    "bench": str,
    "schema_version": int,
    "scale": dict,
    "seed": int,
    "threads": int,
    "timing": dict,
    "wall_clock_seconds": (int, float),
    "wall_clock_ms": (int, float),
    "peak_rss_bytes": int,
    "series": list,
}
REQUIRED_SCALE = {
    "nodes": int,
    "runs": int,
    "paper": bool,
    "quick": bool,
}
REQUIRED_TIMING = {
    "mode": str,
    "ticks_per_cycle": int,
    "latency": str,
}
TIMING_MODES = {"cyclesync", "jittered"}
LATENCY_KINDS = {"none", "fixed", "uniform", "exponential"}
REQUIRED_SERIES_ENTRY = {
    "label": str,
    "kind": str,
}
# Kinds with a typed schema beyond label/kind: every named key must be a
# list, and all lists in the group must have equal (non-zero) length.
# The network-condition benches (degraded_links, partition_heal) emit
# these; a series of any other kind passes on the generic checks alone.
PARALLEL_ARRAY_KINDS = {
    "loss_sweep": ["loss_percent", "avg_miss_percent", "complete_percent",
                   "avg_messages"],
    "bandwidth_sweep": ["egress_messages_per_tick", "avg_spread_ticks",
                        "avg_miss_percent", "queued_sends"],
    "partition_heal": ["cycle", "side0_pct", "side1_pct"],
    # realnet cross-validation (bench/realnet_coverage + run_local_cluster)
    "coverage_ref": ["round", "coverage_percent"],
    "realnet_coverage": ["round", "real_coverage_percent"],
    "realnet_vs_sim": ["round", "real_coverage_percent",
                       "sim_coverage_percent", "abs_delta_percent"],
    # sustained multi-message traffic (bench/sustained_traffic)
    "throughput": ["publish_rate_per_cycle", "delivered_per_node_per_cycle",
                   "msgs_per_sec_per_node", "redundancy_ratio",
                   "completed_percent", "tracked_in_flight_max"],
    "latency_percentiles": ["publish_rate_per_cycle", "p50_ticks",
                            "p99_ticks", "p50_over_floor", "p99_over_floor",
                            "mean_ticks"],
    # sharded-engine scaling (bench/scale_sweep --engine-threads)
    "thread_scaling": ["threads", "node_cycles_per_sec", "speedup_vs_1",
                       "peak_rss_bytes"],
    # search workloads over the frozen overlays (bench/search_workload)
    "search_sweep": ["ttl", "hit_rate_percent", "cache_hit_percent",
                     "avg_hops_to_hit", "messages_per_query"],
}
# Parallel-array kinds that compare dissemination strategies and must
# carry a string 'strategy' key. Engine-level kinds (thread_scaling) run
# below the strategy layer and are exempt.
STRATEGY_KINDS = set(PARALLEL_ARRAY_KINDS) - {"thread_scaling"}


def check_timing(path, timing, where):
    """Validates one timing-model metadata object (top-level or series)."""
    for key, kind in REQUIRED_TIMING.items():
        if key not in timing:
            return fail(path, f"missing required key '{where}.{key}'")
        if not isinstance(timing[key], kind):
            return fail(path, f"key '{where}.{key}' has type "
                              f"{type(timing[key]).__name__}")
    if timing["mode"] not in TIMING_MODES:
        return fail(path, f"{where}.mode '{timing['mode']}' not in "
                          f"{sorted(TIMING_MODES)}")
    if timing["ticks_per_cycle"] < 1:
        return fail(path, f"{where}.ticks_per_cycle must be >= 1, got "
                          f"{timing['ticks_per_cycle']}")
    if timing["latency"] not in LATENCY_KINDS:
        return fail(path, f"{where}.latency '{timing['latency']}' not in "
                          f"{sorted(LATENCY_KINDS)}")
    return True


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def check_thread_scaling(path, entry, i):
    """Semantic checks on one thread_scaling series (arrays already
    validated as equal-length non-empty lists)."""
    threads = entry["threads"]
    if any(not isinstance(t, int) or t < 1 for t in threads):
        return fail(path, f"series[{i}] threads must be positive integers: "
                          f"{threads}")
    if any(b <= a for a, b in zip(threads, threads[1:])):
        return fail(path, f"series[{i}] threads must be strictly "
                          f"increasing: {threads}")
    if threads[0] != 1:
        return fail(path, f"series[{i}] thread axis must start at 1 "
                          f"(the speedup baseline), got {threads[0]}")
    rates = entry["node_cycles_per_sec"]
    if any(not isinstance(r, (int, float)) or r <= 0 for r in rates):
        return fail(path, f"series[{i}] node_cycles_per_sec must be "
                          f"positive: {rates}")
    speedups = entry["speedup_vs_1"]
    if abs(speedups[0] - 1.0) > 1e-9:
        return fail(path, f"series[{i}] speedup_vs_1[0] must be 1.0 "
                          f"(it is its own baseline), got {speedups[0]}")
    if any(not isinstance(s, (int, float)) or s <= 0 for s in speedups):
        return fail(path, f"series[{i}] speedup_vs_1 must be positive: "
                          f"{speedups}")
    return True


def check_latency_percentiles(path, entry, i):
    """Semantic checks on one latency_percentiles series (arrays already
    validated as equal-length non-empty lists): each *_over_floor entry
    is its percentile over mundinger_floor_ticks."""
    floor = entry.get("mundinger_floor_ticks")
    if not isinstance(floor, (int, float)) or floor <= 0:
        return fail(path, f"series[{i}] mundinger_floor_ticks must be a "
                          f"positive number, got {floor!r}")
    for pct in ("p50", "p99"):
        ticks = entry[f"{pct}_ticks"]
        ratios = entry[f"{pct}_over_floor"]
        for t, r in zip(ticks, ratios):
            if not isinstance(r, (int, float)) or r < 0:
                return fail(path, f"series[{i}] {pct}_over_floor must be "
                                  f"non-negative numbers: {ratios}")
            if abs(r - t / floor) > 1e-9 * max(1.0, abs(r)):
                return fail(path, f"series[{i}] {pct}_over_floor {r} != "
                                  f"{pct}_ticks {t} / floor {floor}")
    return True


def check(path):
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(path, f"does not parse: {error}")

    if not isinstance(record, dict):
        return fail(path, "top level is not an object")
    for key, kind in REQUIRED_TOP_LEVEL.items():
        if key not in record:
            return fail(path, f"missing required key '{key}'")
        if not isinstance(record[key], kind):
            return fail(path, f"key '{key}' has type "
                              f"{type(record[key]).__name__}")
    for key, kind in REQUIRED_SCALE.items():
        if key not in record["scale"]:
            return fail(path, f"missing required key 'scale.{key}'")
        if not isinstance(record["scale"][key], kind):
            return fail(path, f"key 'scale.{key}' has type "
                              f"{type(record['scale'][key]).__name__}")
    if record["threads"] < 1:
        return fail(path, f"threads must be >= 1, got {record['threads']}")
    if not check_timing(path, record["timing"], "timing"):
        return False
    if record["wall_clock_seconds"] < 0:
        return fail(path, "wall_clock_seconds is negative")
    if record["wall_clock_ms"] < 0:
        return fail(path, "wall_clock_ms is negative")
    # The two clocks are the same stopwatch in different units.
    if abs(record["wall_clock_ms"] - record["wall_clock_seconds"] * 1000.0) \
            > max(1.0, record["wall_clock_ms"] * 0.01):
        return fail(path, "wall_clock_ms disagrees with wall_clock_seconds")
    if record["peak_rss_bytes"] < 0:
        return fail(path, "peak_rss_bytes is negative")
    if not record["series"]:
        return fail(path, "series is empty")
    for i, entry in enumerate(record["series"]):
        if not isinstance(entry, dict):
            return fail(path, f"series[{i}] is not an object")
        for key, kind in REQUIRED_SERIES_ENTRY.items():
            if key not in entry or not isinstance(entry[key], kind):
                return fail(path, f"series[{i}] missing/typed key '{key}'")
        # Benches comparing timing models attach per-series metadata too;
        # when present it must be as well-formed as the top-level object.
        if "timing" in entry:
            if not isinstance(entry["timing"], dict):
                return fail(path, f"series[{i}].timing is not an object")
            if not check_timing(path, entry["timing"], f"series[{i}].timing"):
                return False
        arrays = PARALLEL_ARRAY_KINDS.get(entry["kind"])
        if arrays is not None:
            if entry["kind"] in STRATEGY_KINDS and (
                    "strategy" not in entry or
                    not isinstance(entry["strategy"], str)):
                return fail(path, f"series[{i}] ({entry['kind']}) misses "
                                  f"string key 'strategy'")
            lengths = set()
            for key in arrays:
                if key not in entry or not isinstance(entry[key], list):
                    return fail(path, f"series[{i}] ({entry['kind']}) "
                                      f"misses list key '{key}'")
                lengths.add(len(entry[key]))
            if len(lengths) != 1 or 0 in lengths:
                return fail(path, f"series[{i}] ({entry['kind']}) parallel "
                                  f"arrays disagree in length: {lengths}")
        if entry["kind"] == "thread_scaling":
            if not check_thread_scaling(path, entry, i):
                return False
        if entry["kind"] == "latency_percentiles":
            if not check_latency_percentiles(path, entry, i):
                return False
    # Benches emitting per-timing-mode scaling sweeps (timing_sensitivity
    # --engine-threads) must label each one distinctly, or consumers
    # cannot tell the modes apart.
    scaling_labels = [entry["label"] for entry in record["series"]
                      if entry.get("kind") == "thread_scaling"]
    if len(scaling_labels) != len(set(scaling_labels)):
        return fail(path, f"duplicate thread_scaling labels: "
                          f"{sorted(scaling_labels)}")
    print(f"OK   {path}: bench={record['bench']} "
          f"series={len(record['series'])} "
          f"threads={record['threads']} "
          f"wall_clock={record['wall_clock_seconds']:.2f}s "
          f"peak_rss={record['peak_rss_bytes'] / (1 << 20):.0f}MiB")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    results = [check(path) for path in argv[1:]]
    print(f"{sum(results)}/{len(results)} records valid")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
