#!/usr/bin/env python3
"""Launches a real vs07_node cluster on localhost and cross-validates it.

Spawns N vs07_node processes (one seed + N-1 joiners) bound to ephemeral
127.0.0.1 ports, waits for every node to bootstrap and warm up, publishes
`--publishes` messages via RingCast round-robin across origins, and
collects every node's first-delivery hop over the control sockets. From
those it builds the real coverage-vs-round curve and validates it:

  1. every publish must reach 100% of the cluster (RingCast full
     delivery on a lossless local network),
  2. the curve must agree, round by round, with the in-process
     simulator's lossyWan reference (bench/realnet_coverage on the same
     population seed) within --tolerance percentage points, and
  3. no node may count a malformed datagram: every frame an honest
     cluster sends fits one datagram and decodes.

With --json PATH it emits a bench-schema record (validated by
scripts/check_bench_json.py) carrying the real curve, the sim curve, and
their per-round deltas.

Exit codes: 0 = pass, 1 = validation failure or node crash, 2 = cannot
run here (binary missing, sockets unavailable).

Usage:
  scripts/run_local_cluster.py --nodes 16 --quick \
      --bin build/vs07_node --sim-bench build/realnet_coverage
"""
import argparse
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import time

READY_RE = re.compile(r"VS07_READY id=(\d+) udp=(\d+) control=(\d+)")


class Node:
    def __init__(self, node_id, proc, udp_port, control_port, log_path):
        self.id = node_id
        self.proc = proc
        self.udp_port = udp_port
        self.control_port = control_port
        self.log_path = log_path


def launch_node(binary, node_id, args, extra, log_dir):
    log_path = os.path.join(log_dir, f"node{node_id}.log")
    log = open(log_path, "w", encoding="utf-8")
    cmd = [binary, "--id", str(node_id), "--nodes", str(args.nodes),
           "--seed", str(args.seed), "--cycle-ms", str(args.cycle_ms),
           "--warmup-cycles", str(args.warmup_cycles),
           "--strategy", args.strategy, "--fanout", str(args.fanout),
           "--listen", "0.0.0.0:0", "--control", "127.0.0.1:0"] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            text=True)
    deadline = time.monotonic() + 10.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line:
            break
        if proc.poll() is not None:
            break
    match = READY_RE.match(line.strip()) if line else None
    if not match:
        proc.kill()
        raise RuntimeError(
            f"node {node_id} printed no VS07_READY line "
            f"(see {log_path}); got {line!r}")
    return Node(node_id, proc, int(match.group(2)), int(match.group(3)),
                log_path)


def control(node, command, timeout=5.0):
    """One command over a fresh control connection; returns parsed JSON."""
    with socket.create_connection(("127.0.0.1", node.control_port),
                                  timeout=timeout) as conn:
        conn.sendall((command + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = conn.recv(4096)
            if not chunk:
                break
            buf += chunk
    reply = buf.decode().strip()
    if not reply:
        raise RuntimeError(f"node {node.id}: empty reply to {command!r}")
    return json.loads(reply)


def wait_all(nodes, predicate, what, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        statuses = [control(n, "status") for n in nodes]
        if all(predicate(s) for s in statuses):
            return statuses
        time.sleep(0.1)
    pending = [n.id for n, s in zip(nodes, statuses)
               if not predicate(s)]
    raise RuntimeError(f"timed out waiting for {what}: nodes {pending}")


def coverage_curve(hops_per_publish, nodes):
    """Cumulative coverage %, averaged over publishes; index = round."""
    max_hop = max((max(h.values()) for h in hops_per_publish if h),
                  default=0)
    curve = []
    for rnd in range(max_hop + 1):
        total = 0.0
        for hops in hops_per_publish:
            total += 100.0 * sum(1 for h in hops.values() if h <= rnd) / nodes
        curve.append(total / len(hops_per_publish))
    return curve


def sim_reference(args):
    """Runs bench/realnet_coverage on the same population; returns curve."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        ref_path = tmp.name
    try:
        cmd = [args.sim_bench, "--nodes", str(args.nodes),
               "--seed", str(args.seed), "--runs", str(args.sim_runs),
               "--loss", str(args.sim_loss),
               "--latency", args.sim_latency, "--threads", "2",
               "--json", ref_path]
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=300)
        if result.returncode != 0:
            raise RuntimeError(
                f"sim reference failed ({result.returncode}):\n"
                f"{result.stdout}\n{result.stderr}")
        with open(ref_path, encoding="utf-8") as handle:
            record = json.load(handle)
        series = record["series"][0]
        return series["coverage_percent"]
    finally:
        os.unlink(ref_path)


def emit_record(args, real_curve, sim_curve, deltas, statuses, publishes,
                delivery_percent, wall_seconds):
    rounds = list(range(len(real_curve)))
    record = {
        "bench": "realnet_cluster",
        "schema_version": 1,
        "scale": {"nodes": args.nodes, "runs": publishes,
                  "paper": False, "quick": args.quick},
        "seed": args.seed,
        "threads": 1,
        # The cluster's wall-clock analogue of the sim's jittered timers.
        "timing": {"mode": "jittered", "ticks_per_cycle": 8,
                   "latency": "none"},
        "wall_clock_seconds": wall_seconds,
        "wall_clock_ms": wall_seconds * 1000.0,
        "peak_rss_bytes": max(s["peak_rss_bytes"] for s in statuses),
        "cycle_ms": args.cycle_ms,
        "delivery_percent": delivery_percent,
        "datagrams_sent": sum(s["datagrams_sent"] for s in statuses),
        "dropped_malformed": sum(s["dropped_malformed"] for s in statuses),
        "series": [
            {"label": f"real {args.strategy} coverage vs round "
                      f"({args.nodes} processes)",
             "kind": "realnet_coverage",
             "strategy": args.strategy,
             "round": rounds,
             "real_coverage_percent": real_curve},
            {"label": "real vs sim (lossyWan reference)",
             "kind": "realnet_vs_sim",
             "strategy": args.strategy,
             "tolerance_percent": args.tolerance,
             "round": rounds,
             "real_coverage_percent": real_curve,
             "sim_coverage_percent": sim_curve[:len(rounds)],
             "abs_delta_percent": deltas},
        ],
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"JSON record written to {args.json}")


def pad(curve, length):
    return curve + [curve[-1]] * (length - len(curve)) if curve else [0.0]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--publishes", type=int, default=0,
                        help="messages to publish (default: one per node)")
    parser.add_argument("--cycle-ms", type=int, default=50)
    parser.add_argument("--warmup-cycles", type=int, default=10)
    parser.add_argument("--converge-cycles", type=int, default=60,
                        help="gossip cycles every node must run before the "
                             "first publish; the VICINITY ring needs ~40 "
                             "cycles at 16 nodes, and an unconverged ring "
                             "drags the mid-wave rounds well below the sim "
                             "reference")
    parser.add_argument("--strategy", default="ringcast")
    parser.add_argument("--fanout", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: fewer publishes, shorter settle")
    parser.add_argument("--bin", default="build/vs07_node")
    parser.add_argument("--sim-bench", default="build/realnet_coverage")
    parser.add_argument("--sim-runs", type=int, default=64)
    parser.add_argument("--sim-loss", type=float, default=0.0,
                        help="per-link loss%% for the sim reference; the "
                             "loopback cluster is lossless, so the default "
                             "compares like with like (raise it to watch "
                             "push-only RingCast strand nodes in the sim)")
    parser.add_argument("--sim-latency", default="uniform",
                        choices=["uniform", "wan"],
                        help="sim latency model; 'uniform' (default, fixed "
                             "1 tick per link) matches loopback's hop "
                             "semantics — under 'wan' the first copy often "
                             "arrives via a longer-hop path, so the sim's "
                             "hop curve reads slower")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="max |real - sim| per round, percentage points")
    parser.add_argument("--settle-s", type=float, default=0.0,
                        help="wait after the last publish before collecting "
                             "reports (default: 40 cycles)")
    parser.add_argument("--json", default="",
                        help="write a bench-schema JSON record here")
    parser.add_argument("--keep-logs", default="",
                        help="directory for per-node logs (default: temp, "
                             "removed on success)")
    args = parser.parse_args()

    if not os.path.exists(args.bin):
        print(f"SKIP: {args.bin} not built")
        return 2
    if args.publishes <= 0:
        # The per-round tolerance needs a decent sample: 8 publishes put
        # ~3.5pp of noise on the mid-wave rounds, 32 brings it under 2pp.
        args.publishes = 32 if args.quick else max(2 * args.nodes, 32)
    settle_s = args.settle_s or (40 * args.cycle_ms / 1000.0)

    # Sockets may be unavailable in sandboxes; probe before launching N.
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError as error:
        print(f"SKIP: loopback sockets unavailable ({error})")
        return 2

    log_dir = args.keep_logs or tempfile.mkdtemp(prefix="vs07_cluster_")
    os.makedirs(log_dir, exist_ok=True)
    started = time.monotonic()
    nodes = []
    failures = []
    try:
        seed_node = launch_node(args.bin, 0, args, ["--is-seed"], log_dir)
        nodes.append(seed_node)
        seed_peer = f"127.0.0.1:{seed_node.udp_port}"
        for node_id in range(1, args.nodes):
            nodes.append(launch_node(args.bin, node_id, args,
                                     ["--seed-peer", seed_peer], log_dir))
        print(f"{args.nodes} nodes up (seed udp {seed_node.udp_port}), "
              f"waiting for bootstrap...")

        wait_all(nodes, lambda s: s["state"] == "joined", "bootstrap", 30.0)
        # Warm up: every node must have gossiped enough cycles for the
        # CYCLON/VICINITY views (and the ring) to converge.
        min_cycles = args.warmup_cycles + args.converge_cycles
        statuses = wait_all(nodes, lambda s: s["cycles"] >= min_cycles,
                            f"{min_cycles} gossip cycles",
                            30.0 + min_cycles * args.cycle_ms / 1000.0)
        ring_ok = sum(1 for s in statuses if s.get("ring_converged"))
        print(f"overlay warm ({min_cycles}+ cycles each, ring converged "
              f"on {ring_ok}/{args.nodes} nodes), publishing "
              f"{args.publishes} messages...")

        data_ids = []
        for publish in range(args.publishes):
            origin = nodes[publish % len(nodes)]
            reply = control(origin, "publish")
            if "data_id" not in reply:
                raise RuntimeError(f"publish via node {origin.id}: {reply}")
            data_ids.append(reply["data_id"])
            # Stagger so concurrent waves don't saturate loopback buffers.
            time.sleep(3 * args.cycle_ms / 1000.0)
        time.sleep(settle_s)

        hops_per_publish = []
        missing = []
        for data_id in data_ids:
            hops = {}
            for node in nodes:
                report = control(node, f"report {data_id}")
                if report.get("delivered"):
                    hops[node.id] = report["hop"]
                else:
                    missing.append((data_id, node.id))
            hops_per_publish.append(hops)
        delivered = sum(len(h) for h in hops_per_publish)
        expected = args.publishes * args.nodes
        delivery_percent = 100.0 * delivered / expected
        print(f"delivery: {delivered}/{expected} ({delivery_percent:.2f}%)")
        if missing:
            failures.append(
                f"{len(missing)} missed deliveries, e.g. "
                f"{missing[:5]} (dataId, nodeId)")

        real_curve = coverage_curve(hops_per_publish, args.nodes)
        print("real  coverage/round: "
              + " ".join(f"{c:6.2f}" for c in real_curve))

        print(f"running sim reference ({args.sim_bench}, "
              f"{args.sim_runs} runs)...")
        sim_curve = sim_reference(args)
        rounds = max(len(real_curve), len(sim_curve))
        real_padded = pad(real_curve, rounds)
        sim_padded = pad(sim_curve, rounds)
        print("sim   coverage/round: "
              + " ".join(f"{c:6.2f}" for c in sim_padded))
        deltas = [abs(r - s) for r, s in zip(real_padded, sim_padded)]
        print("delta coverage/round: "
              + " ".join(f"{d:6.2f}" for d in deltas))
        bad_rounds = [i for i, d in enumerate(deltas) if d > args.tolerance]
        if bad_rounds:
            failures.append(
                f"real/sim curves disagree beyond {args.tolerance}pp at "
                f"rounds {bad_rounds}")

        statuses = [control(n, "status") for n in nodes]
        malformed = sum(s["dropped_malformed"] for s in statuses)
        if malformed:
            failures.append(
                f"{malformed} malformed datagrams dropped across the "
                f"cluster (an oversized or undecodable frame)")
        if args.json:
            emit_record(args, real_padded, sim_padded, deltas, statuses,
                        args.publishes, delivery_percent,
                        time.monotonic() - started)
    except Exception as error:  # noqa: BLE001 - report, then teardown
        failures.append(str(error))
    finally:
        for node in nodes:
            try:
                control(node, "quit", timeout=2.0)
            except Exception:
                node.proc.kill()
        for node in nodes:
            try:
                node.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                node.proc.kill()

    if failures:
        print(f"FAIL ({len(failures)}):")
        for failure in failures:
            print(f"  - {failure}")
        print(f"node logs kept in {log_dir}")
        return 1
    print(f"PASS: {args.nodes}-process cluster, 100% delivery, curve within "
          f"{args.tolerance}pp of the sim reference")
    if not args.keep_logs:
        shutil.rmtree(log_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
