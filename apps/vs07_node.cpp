// vs07_node — one real node of the gossip overlay, run as a process.
//
// Runs the full protocol stack (CYCLON + VICINITY + LiveCast) over real
// UDP sockets on wall-clock timers (runtime::NodeProcess) and exposes a
// line-protocol control socket (runtime::ControlServer) for the cluster
// harness (scripts/run_local_cluster.py). On startup it prints a single
// parseable line:
//
//   VS07_READY id=<id> udp=<port> control=<port>
//
// so harnesses launching it with ephemeral ports (--listen 0.0.0.0:0)
// can discover what the kernel assigned. Control commands (one per line,
// one JSON line back): status | publish | report <dataId> | quit.
#include <netinet/in.h>
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cast/strategy.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/resource.hpp"
#include "runtime/control.hpp"
#include "runtime/node_process.hpp"
#include "runtime/peer_table.hpp"

namespace {

using namespace vs07;

const char* stateName(runtime::Bootstrap::State state) {
  switch (state) {
    case runtime::Bootstrap::State::kAnnouncing:
      return "announcing";
    case runtime::Bootstrap::State::kJoined:
      return "joined";
    case runtime::Bootstrap::State::kFailed:
      return "failed";
  }
  return "?";
}

// Whether the node's resolved d-links are the true ring neighbours —
// the population's profiles are deterministic (populationSeed), so each
// process can score its own ring locally.
bool ringConverged(const runtime::NodeProcess& node) {
  const auto& vicinity = node.vicinity();
  const NodeId self = node.selfId();
  const auto selfSeq = vicinity.profileOf(self);
  const std::uint32_t nodes = node.peers().nodeCount();
  NodeId idealSucc = kNoNode;
  NodeId idealPred = kNoNode;
  SequenceId bestCw = ~SequenceId{0};
  SequenceId bestCcw = ~SequenceId{0};
  for (NodeId other = 0; other < nodes; ++other) {
    if (other == self) continue;
    const SequenceId cw = vicinity.profileOf(other) - selfSeq;
    const SequenceId ccw = selfSeq - vicinity.profileOf(other);
    if (cw < bestCw) bestCw = cw, idealSucc = other;
    if (ccw < bestCcw) bestCcw = ccw, idealPred = other;
  }
  const auto links = vicinity.ringNeighbors(self);
  return links.successor == idealSucc && links.predecessor == idealPred;
}

Json statusJson(const runtime::NodeProcess& node) {
  Json j = Json::object();
  j.set("id", node.selfId());
  j.set("state", stateName(node.bootstrap().state()));
  j.set("cycles", node.cyclesRun());
  j.set("known_peers", node.peers().knownCount());
  j.set("cyclon_view", node.cyclon().view(node.selfId()).size());
  j.set("vicinity_view", node.vicinity().view(node.selfId()).size());
  j.set("ring_converged", ringConverged(node));
  j.set("deliveries", node.deliveries().size());
  const auto& t = node.transport();
  j.set("datagrams_sent", t.datagramsSent());
  j.set("datagrams_received", t.datagramsReceived());
  j.set("dropped_no_address", t.droppedNoAddress());
  j.set("dropped_malformed", t.droppedMalformed());
  j.set("dropped_backlog", t.droppedBacklog());
  j.set("dropped_send_error", t.droppedSendError());
  j.set("retried_sends", t.retriedSends());
  j.set("peak_rss_bytes", peakRssBytes());
  return j;
}

Json reportJson(const runtime::NodeProcess& node, std::uint64_t dataId) {
  Json j = Json::object();
  j.set("data_id", dataId);
  const auto* d = node.delivery(dataId);
  j.set("delivered", d != nullptr);
  if (d != nullptr) {
    j.set("hop", d->hop);
    j.set("via_pull", d->viaPull);
    j.set("at_ms", d->atMs);
  }
  return j;
}

Json errorJson(const std::string& message) {
  Json j = Json::object();
  j.set("error", message);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser parser(
      "One real-socket gossip node (UDP transport + control socket)");
  parser.option("id", "this node's NodeId within the population")
      .option("nodes", "population size (must agree across the cluster)")
      .option("seed", "experiment root seed (must agree across the cluster)")
      .option("listen", "host:port for UDP gossip (port 0 = ephemeral)")
      .option("control",
              "127.0.0.1:port for the loopback-only control socket "
              "(port 0 = ephemeral)")
      .option("seed-peer", "host:port of the bootstrap seed node")
      .option("is-seed", "run as the bootstrap seed (skips the ladder)",
              /*takesValue=*/false)
      .option("cycle-ms", "wall-clock milliseconds per gossip cycle")
      .option("warmup-cycles", "cycles to idle after joining before gossip")
      .option("strategy", "flood | randcast | ringcast | multiring | pushpull")
      .option("fanout", "push fanout F")
      .option("pull-interval", "pull heartbeat in own cycles (pushpull)")
      .option("view-length", "CYCLON/VICINITY view length")
      .option("shuffle-length", "CYCLON shuffle length");
  const auto parsed = parser.parseOrExit(argc, argv);
  if (!parsed) return 0;
  const CliArgs& args = *parsed;

  runtime::NodeProcess::Config config;
  config.selfId = static_cast<NodeId>(args.getUint("id", 0));
  config.nodes = static_cast<std::uint32_t>(args.getPositiveUint("nodes", 16));
  config.seed = args.getUint("seed", 1);
  config.port = args.getHostPort("listen", {"0.0.0.0", 0}).port;
  config.isSeed = args.getBool("is-seed", false);
  if (!config.isSeed) {
    const HostPort peer = args.getHostPort("seed-peer", {"", 0});
    config.seedAddr = runtime::parseAddress(peer.host, peer.port);
    if (!config.seedAddr.valid()) {
      std::fprintf(stderr,
                   "vs07_node: --seed-peer host:port is required unless "
                   "--is-seed (numeric IPv4 or 'localhost')\n");
      return 2;
    }
  }
  config.cycleMs =
      static_cast<std::uint32_t>(args.getPositiveUint("cycle-ms", 100));
  config.warmupCycles =
      static_cast<std::uint32_t>(args.getUint("warmup-cycles", 10));
  static const std::vector<std::string> kStrategies = {
      "flood", "randcast", "ringcast", "multiring", "pushpull"};
  config.strategy =
      static_cast<cast::Strategy>(args.getChoice("strategy", kStrategies, 2));
  config.fanout = static_cast<std::uint32_t>(args.getPositiveUint("fanout", 3));
  config.pullInterval =
      static_cast<std::uint32_t>(args.getUint("pull-interval", 1));
  config.viewLength =
      static_cast<std::uint32_t>(args.getPositiveUint("view-length", 20));
  config.shuffleLength =
      static_cast<std::uint32_t>(args.getPositiveUint("shuffle-length", 8));

  // Control commands are unauthenticated ("quit", "publish"), so the
  // control socket listens on loopback only.
  const HostPort controlAt = args.getHostPort("control", {"127.0.0.1", 0});
  if (runtime::parseAddress(controlAt.host, controlAt.port).ipv4 !=
      INADDR_LOOPBACK) {
    std::fprintf(stderr,
                 "vs07_node: --control must be 127.0.0.1:port (the control "
                 "socket is loopback only), got host '%s'\n",
                 controlAt.host.c_str());
    return 2;
  }

  try {
    runtime::NodeProcess node(config);

    bool stop = false;
    runtime::ControlServer control(
        controlAt.port, [&](const std::string& line) -> std::string {
          if (line == "status") return statusJson(node).dump();
          if (line == "publish") {
            if (!node.joined())
              return errorJson("not joined yet").dump();
            Json j = Json::object();
            j.set("data_id", node.publish());
            return j.dump();
          }
          if (line.rfind("report ", 0) == 0) {
            try {
              return reportJson(node, std::stoull(line.substr(7))).dump();
            } catch (const std::exception&) {
              return errorJson("bad dataId").dump();
            }
          }
          if (line == "quit") {
            stop = true;
            Json j = Json::object();
            j.set("ok", true);
            return j.dump();
          }
          return errorJson("unknown command (status|publish|report <id>|quit)")
              .dump();
        });

    std::printf("VS07_READY id=%u udp=%u control=%u\n",
                static_cast<unsigned>(config.selfId),
                static_cast<unsigned>(node.transport().listenPort()),
                static_cast<unsigned>(control.listenPort()));
    std::fflush(stdout);

    std::vector<::pollfd> fds;
    while (!stop) {
      const std::uint64_t now = node.nowTick();
      const std::uint64_t deadline = node.nextEventMs();
      const int timeoutMs =
          deadline == UINT64_MAX
              ? 50
              : static_cast<int>(
                    deadline <= now
                        ? 0
                        : std::min<std::uint64_t>(deadline - now, 50));
      fds.clear();
      node.addPollFds(fds);
      control.addPollFds(fds);
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
      node.service();
      control.service();
      if (node.bootstrapFailed()) break;
    }
    if (node.bootstrapFailed()) {
      std::fprintf(stderr, "vs07_node: bootstrap failed (no WELCOME)\n");
      return 1;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vs07_node: %s\n", error.what());
    return 1;
  }
  return 0;
}
