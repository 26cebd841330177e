#include "cast/disseminator.hpp"

#include <memory>
#include <span>
#include <vector>

#include "common/expect.hpp"

namespace vs07::cast {

namespace {

/// Per-node wave state, one byte per id. A message landing on a node
/// moves it to `state + (state == kUnreached)`: only unreached nodes
/// change, and they become notified.
enum NodeState : std::uint8_t { kDead = 0, kUnreached = 1, kNotified = 2 };

/// The hop loop for one selection rule. `select(rlinks, dlinks, node,
/// from, rng, out)` writes node's targets to the front of `out` (room
/// for every link) and returns their count.
template <typename Select>
DeliveryReport spread(const OverlaySnapshot& overlay, NodeId origin,
                      const DisseminationParams& params, Select select) {
  DeliveryReport report;
  report.fanout = params.fanout;
  report.origin = origin;
  report.aliveTotal = overlay.aliveCount();
  if (params.recordLoad) {
    report.forwardsPerNode.assign(overlay.totalIds(), 0);
    report.receivedPerNode.assign(overlay.totalIds(), 0);
  }

  Rng rng(params.seed);
  std::vector<std::uint8_t> state(overlay.totalIds(), kDead);
  for (const NodeId id : overlay.aliveIds()) state[id] = kUnreached;

  // Nodes in the order they were first notified, each with who sent to
  // it: hop h's frontier is one contiguous run. Every alive node enters
  // at most once; the spare slot takes the unconditional write a
  // message to an already-notified node makes once all are notified.
  struct Hop {
    NodeId node;
    NodeId from;
  };
  const auto queue =
      std::make_unique_for_overwrite<Hop[]>(overlay.aliveCount() + 1);
  std::size_t head = 0;
  std::size_t tail = 0;
  queue[tail++] = {origin, kNoNode};
  state[origin] = kNotified;
  report.newlyNotifiedPerHop.push_back(1);  // hop 0: the origin

  std::vector<NodeId> targets;
  std::uint64_t sent = 0;
  std::uint64_t toDead = 0;
  std::uint32_t hop = 0;
  while (head < tail) {
    const std::size_t hopEnd = tail;
    for (; head < hopEnd; ++head) {
      const auto [node, from] = queue[head];
      const auto rlinks = overlay.rlinks(node);
      const auto dlinks = overlay.dlinks(node);
      if (targets.size() < rlinks.size() + dlinks.size())
        targets.resize(rlinks.size() + dlinks.size());
      const std::size_t count =
          select(rlinks, dlinks, node, from, rng, std::span<NodeId>(targets));
      sent += count;
      if (params.recordLoad)
        report.forwardsPerNode[node] += static_cast<std::uint32_t>(count);
      for (std::size_t i = 0; i < count; ++i) {
        const NodeId target = targets[i];
        VS07_EXPECT(target < state.size());
        const std::uint8_t arrival = state[target];
        const bool fresh = arrival == kUnreached;
        toDead += arrival == kDead;
        if (params.recordLoad)
          report.receivedPerNode[target] += arrival != kDead;
        state[target] = static_cast<std::uint8_t>(arrival + fresh);
        queue[tail] = {target, node};
        tail += fresh;
      }
    }
    ++hop;
    if (tail > hopEnd) {
      report.newlyNotifiedPerHop.push_back(tail - hopEnd);
      report.lastHop = hop;
    }
  }

  report.notified = tail;
  report.messagesTotal = sent;
  report.messagesToDead = toDead;
  report.messagesVirgin = tail - 1;  // every notified node but the origin
  report.messagesRedundant = sent - report.messagesVirgin - toDead;
  for (const NodeId id : overlay.aliveIds())
    if (state[id] != kNotified) report.missed.push_back(id);
  report.pushDelivered = report.notified;
  VS07_ENSURE(report.notified + report.missed.size() == report.aliveTotal);
  return report;
}

}  // namespace

DeliveryReport disseminate(const OverlaySnapshot& overlay,
                           const TargetSelector& selector, NodeId origin,
                           const DisseminationParams& params) {
  VS07_EXPECT(origin < overlay.totalIds());
  VS07_EXPECT(overlay.isAlive(origin));
  VS07_EXPECT(params.fanout >= 1);

  // One dispatch per dissemination: each rule gets its own hop loop.
  const std::uint32_t fanout = params.fanout;
  switch (selector.rule()) {
    case TargetSelector::Rule::kFlood:
      return spread(overlay, origin, params,
                    [](auto rlinks, auto dlinks, NodeId self, NodeId from,
                       Rng&, std::span<NodeId> out) {
                      return floodTargets(rlinks, dlinks, self, from, out);
                    });
    case TargetSelector::Rule::kRandom:
      return spread(overlay, origin, params,
                    [fanout](auto rlinks, auto, NodeId self, NodeId from,
                             Rng& rng, std::span<NodeId> out) {
                      return randomTargets(rlinks, self, from, fanout, rng,
                                           out);
                    });
    case TargetSelector::Rule::kHybrid:
      return spread(overlay, origin, params,
                    [fanout](auto rlinks, auto dlinks, NodeId self,
                             NodeId from, Rng& rng, std::span<NodeId> out) {
                      return hybridTargets(rlinks, dlinks, self, from, fanout,
                                           rng, out);
                    });
  }
  VS07_EXPECT(false && "unknown selection rule");
  return {};  // unreachable
}

}  // namespace vs07::cast
