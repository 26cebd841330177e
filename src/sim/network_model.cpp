#include "sim/network_model.hpp"

#include <algorithm>
#include <cmath>

namespace vs07::sim {

// -- ring helpers --------------------------------------------------------

std::vector<NodeId> ringOrder(const Network& network) {
  std::vector<NodeId> ring(network.aliveIds());
  std::sort(ring.begin(), ring.end(), [&network](NodeId a, NodeId b) {
    const auto pa = network.seqId(a);
    const auto pb = network.seqId(b);
    if (pa != pb) return pa < pb;
    return a < b;
  });
  return ring;
}

std::vector<NodeId> contiguousRingArc(const Network& network, double fraction,
                                      Rng& rng) {
  VS07_EXPECT(fraction >= 0.0 && fraction <= 1.0);
  const auto count = static_cast<std::uint32_t>(
      std::llround(fraction * static_cast<double>(network.aliveCount())));
  std::vector<NodeId> arc;
  if (count == 0) return arc;
  const std::vector<NodeId> ring = ringOrder(network);
  const std::size_t start = rng.below(ring.size());
  arc.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    arc.push_back(ring[(start + i) % ring.size()]);
  return arc;
}

// -- PartitionSchedule ---------------------------------------------------

PartitionSchedule PartitionSchedule::splitRing(const Network& network,
                                               std::uint32_t groups) {
  VS07_EXPECT(groups >= 2);
  VS07_EXPECT(groups <= network.aliveCount());
  PartitionSchedule schedule;
  schedule.groupCount_ = groups;
  schedule.groupOfNode_.assign(network.totalCreated(), 0);
  const std::vector<NodeId> ring = ringOrder(network);
  // Near-equal seq-contiguous segments: node at ring position i belongs
  // to group i*groups/n, so every group is one arc of the ring.
  const std::size_t n = ring.size();
  for (std::size_t i = 0; i < n; ++i)
    schedule.groupOfNode_[ring[i]] =
        static_cast<std::uint32_t>(i * groups / n);
  return schedule;
}

PartitionSchedule PartitionSchedule::splitRingArc(const Network& network,
                                                  double fraction, Rng& rng) {
  PartitionSchedule schedule;
  schedule.groupCount_ = 2;
  schedule.groupOfNode_.assign(network.totalCreated(), 0);
  for (const NodeId node : contiguousRingArc(network, fraction, rng))
    schedule.groupOfNode_[node] = 1;
  return schedule;
}

void PartitionSchedule::addWindow(std::uint64_t startTick,
                                  std::uint64_t endTick) {
  VS07_EXPECT(startTick < endTick);
  VS07_EXPECT(windows_.empty() || windows_.back().endTick <= startTick);
  windows_.push_back({startTick, endTick});
}

bool PartitionSchedule::active(std::uint64_t tick) const noexcept {
  for (const Window& w : windows_)
    if (tick >= w.startTick && tick < w.endTick) return true;
  return false;
}

std::uint32_t PartitionSchedule::groupOf(NodeId node) const noexcept {
  if (node < groupOfNode_.size()) return groupOfNode_[node];
  // Churn joiners born after construction: deterministic hash placement.
  return static_cast<std::uint32_t>(mix64(node) % groupCount_);
}

std::vector<NodeId> PartitionSchedule::members(std::uint32_t group) const {
  std::vector<NodeId> ids;
  for (NodeId node = 0; node < groupOfNode_.size(); ++node)
    if (groupOfNode_[node] == group) ids.push_back(node);
  return ids;
}

// -- NetworkModel --------------------------------------------------------

NetworkModel::NetworkModel(const NetworkConditions& conditions,
                           const Network& network,
                           std::uint32_t ticksPerCycle, std::uint64_t seed)
    : conditions_(conditions),
      rng_(seed),
      activeFromTick_(conditions.startCycle * ticksPerCycle) {
  VS07_EXPECT(ticksPerCycle >= 1);
  VS07_EXPECT(conditions.lossRate >= 0.0 && conditions.lossRate <= 1.0);
  VS07_EXPECT(conditions.duplicateRate >= 0.0 &&
              conditions.duplicateRate <= 1.0);
  VS07_EXPECT(conditions.reorderRate >= 0.0 && conditions.reorderRate <= 1.0);
  VS07_EXPECT(conditions.reorderRate == 0.0 ||
              conditions.reorderMaxTicks >= 1);
  using Kind = NetworkConditions::PartitionPlan::Kind;
  const auto& plan = conditions.partition;
  if (plan.kind != Kind::kNone) {
    partitions_ = plan.kind == Kind::kRingArc
                      ? PartitionSchedule::splitRingArc(
                            network, plan.arcFraction, rng_)
                      : PartitionSchedule::splitRing(network, plan.groups);
    for (const auto& [startCycle, endCycle] : plan.windowsCycles)
      partitions_->addWindow(startCycle * ticksPerCycle,
                             endCycle * ticksPerCycle);
  }
  // Sized up front so steady-state sends never grow it (the zero-alloc
  // contract); churn joiners born later grow it on their first send.
  if (conditions.bandwidth.messagesPerTick > 0)
    nextEgressSlot_.assign(network.totalCreated(), 0);
}

LinkFate NetworkModel::resolve(NodeId src, NodeId dst, std::uint64_t tick) {
  LinkFate fate;
  if (partitions_ && partitions_->blocks(src, dst, tick)) {
    ++droppedByPartition_;
    fate.copies = 0;
    return fate;
  }
  if (tick < activeFromTick_) return fate;  // links clean before startCycle
  const NetworkConditions& c = conditions_;
  if (c.lossRate > 0.0 && rng_.chance(c.lossRate)) fate.copies = 0;
  if (fate.copies != 0 && c.burstLoss && burstDrops(src, dst))
    fate.copies = 0;
  if (fate.copies != 0 && c.duplicateRate > 0.0 &&
      rng_.chance(c.duplicateRate))
    ++fate.copies;
  if (fate.copies != 0 && c.reorderRate > 0.0 && rng_.chance(c.reorderRate))
    fate.extraDelayTicks += 1 + rng_.below(c.reorderMaxTicks);
  if (fate.copies == 0) {
    ++droppedByLoss_;
  } else {
    if (fate.copies > 1) duplicated_ += fate.copies - 1;
    if (fate.extraDelayTicks > 0) ++reordered_;
  }
  return fate;
}

bool NetworkModel::burstDrops(NodeId src, NodeId dst) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(dst);
  // Fresh links start Good. The chain advances once per crossing
  // (event-driven: idle links keep their state, which only matters
  // relative to their own traffic).
  std::uint8_t& bad = burstBad_[key];
  const BurstLoss& p = conditions_.burst;
  if (rng_.chance(bad != 0 ? p.pBadToGood : p.pGoodToBad)) bad ^= 1;
  return rng_.chance(bad != 0 ? p.lossBad : p.lossGood);
}

std::uint64_t NetworkModel::latencyTicks(NodeId src, NodeId dst,
                                         const LatencyModel& fallback,
                                         Rng& rng) {
  const ClusterLatency& clusters = conditions_.clusterLatency;
  if (clusters.clusters == 0) return fallback.draw(rng);
  return clusterOf(src) == clusterOf(dst) ? clusters.intra.draw(rng)
                                          : clusters.inter.draw(rng);
}

std::uint64_t NetworkModel::egressDelay(NodeId src, std::uint64_t tick) {
  const std::uint32_t budget = conditions_.bandwidth.messagesPerTick;
  if (budget == 0 || tick < activeFromTick_) return 0;
  if (src >= nextEgressSlot_.size()) nextEgressSlot_.resize(src + 1, 0);
  // Absolute slot arithmetic: tick t offers `budget` departure slots
  // [t*budget, (t+1)*budget). FIFO: the message departs at the first
  // slot not consumed by earlier traffic.
  std::uint64_t& next = nextEgressSlot_[src];
  const std::uint64_t slot = std::max(next, tick * budget);
  next = slot + 1;
  const std::uint64_t delay = slot / budget - tick;
  if (delay > 0) {
    ++queuedSends_;
    queuedDelayTotal_ += delay;
    maxQueueDelay_ = std::max(maxQueueDelay_, delay);
  }
  return delay;
}

std::uint32_t NetworkModel::clusterOf(NodeId node) const noexcept {
  const std::uint32_t clusters = conditions_.clusterLatency.clusters;
  if (clusters == 0) return 0;
  return static_cast<std::uint32_t>(mix64(node) % clusters);
}

}  // namespace vs07::sim
