// Multi-ring d-link maintenance — the reliability extension sketched in §8:
// "organize nodes in multiple rings, assigning them a different random ID
// per ring", raising the d-link graph's connectivity beyond the single
// ring's minimal cut of two.
//
// Each ring is an independent VICINITY instance on its own message channel.
// A node's position on ring r is derived from its advertised sequence id:
// mix64(seqId ^ salt_r). Each ring's profile table holds the derived
// positions, so descriptors carry none, on any ring, while the ring orders
// stay statistically independent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gossip/vicinity.hpp"

namespace vs07::gossip {

/// A bundle of `ringCount` independent VICINITY rings.
class MultiRing final : public sim::CycleProtocol,
                        public sim::JoinHandler,
                        public sim::ShardedProtocol {
 public:
  /// Creates `ringCount` rings on channels [0, ringCount). Borrowed
  /// references must outlive this object.
  MultiRing(sim::Network& network, net::Transport& transport,
            sim::MessageRouter& router, const Cyclon& cyclon,
            Vicinity::Params baseParams, std::uint32_t ringCount,
            std::uint64_t seed);

  std::uint32_t ringCount() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }

  /// Ring r's VICINITY instance.
  const Vicinity& ring(std::uint32_t r) const;

  /// d-links of `node` on every ring (successor+predecessor per ring).
  std::vector<RingNeighbors> allRingNeighbors(NodeId node) const;

  // sim::CycleProtocol — steps every ring.
  void step(NodeId self) override;

  // sim::ShardedProtocol — steps every ring from the node's single event
  // stream (rings draw sequentially, in ring order); deliveries dispatch
  // to the ring owning the message's channel.
  void onShardedAttach(std::uint32_t shardCount) override;
  void shardStep(NodeId self, sim::ShardContext& ctx) override;
  bool shardDeliver(NodeId to, const net::Message& msg,
                    sim::ShardContext& ctx) override;

  // sim::JoinHandler — forwards the join to every ring.
  void onJoin(NodeId node, NodeId introducer) override;

 private:
  std::vector<std::unique_ptr<Vicinity>> rings_;
};

}  // namespace vs07::gossip
