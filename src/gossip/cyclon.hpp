// CYCLON — inexpensive membership management for unstructured P2P overlays
// (Voulgaris, Gavidia, van Steen; JNSM 2005). The paper's r-link substrate.
//
// Enhanced shuffle, one active exchange per node per cycle:
//   1. increment the age of every view entry;
//   2. pick the *oldest* neighbour Q and remove it from the view;
//   3. send Q a random subset of g-1 other entries plus a fresh
//      descriptor of ourselves (age 0);
//   4. Q replies with up to g random entries of its own view and merges
//      our entries, preferring empty slots, then slots of entries it just
//      sent us;
//   5. we merge Q's reply the same way (the slot freed by removing Q
//      counts as empty).
//
// Dead peers are forgotten for free: the oldest entry is removed before
// contacting it, and a dead Q never replies, so its slot is simply
// reused — CYCLON's implicit failure detection, which the churn
// experiments (§7.3) rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gossip/view.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/sharded.hpp"

namespace vs07::gossip {

/// CYCLON protocol instance managing the views of all simulated nodes.
class Cyclon final : public sim::CycleProtocol,
                     public sim::MembershipObserver,
                     public sim::JoinHandler,
                     public sim::ShardedProtocol {
 public:
  struct Params {
    /// View length ℓ (the paper's cyc = 20).
    std::uint32_t viewLength = 20;
    /// Shuffle length g: entries exchanged per gossip (CYCLON default 8).
    std::uint32_t shuffleLength = 8;
  };

  /// Registers message handlers on `router` and sizes per-node state for
  /// all current nodes of `network` (observer registration). All objects
  /// are borrowed and must outlive the protocol.
  Cyclon(sim::Network& network, net::Transport& transport,
         sim::MessageRouter& router, Params params, std::uint64_t seed);

  Cyclon(const Cyclon&) = delete;
  Cyclon& operator=(const Cyclon&) = delete;

  // sim::CycleProtocol — one active shuffle, on the instance's own
  // context (see sim/sharded.hpp).
  void step(NodeId self) override;

  // sim::ShardedProtocol — the shuffle and its handlers, one body each.
  // The sharded engine passes a worker's context (the acting node's
  // derived RNG stream, the worker's scratch); step() and the router
  // routes pass the instance's own.
  void onShardedAttach(std::uint32_t shardCount) override;
  void shardStep(NodeId self, sim::ShardContext& ctx) override;
  bool shardDeliver(NodeId to, const net::Message& msg,
                    sim::ShardContext& ctx) override;

  // sim::JoinHandler — fresh node starts with just the introducer.
  void onJoin(NodeId node, NodeId introducer) override;

  /// Replaces `node`'s view with fresh (age-0) descriptors of `peers` —
  /// self and duplicates skipped, truncated at viewLength. The runtime's
  /// bootstrap WELCOME seeds a joiner's whole view through this instead
  /// of the single-introducer onJoin (the sim's star topology).
  void seedView(NodeId node, std::span<const NodeId> peers);

  /// Admits one fresh descriptor of `peer` into `self`'s view without
  /// clearing it: fills a free slot, else replaces the oldest entry, and
  /// only refreshes the age of an already-present peer. The bootstrap
  /// seed node uses this on HELLO so joiners become reachable through
  /// gossip immediately, however many have announced already.
  void admit(NodeId self, NodeId peer);

  // sim::MembershipObserver
  void onReserve(NodeId count) override;
  void onSpawn(NodeId node) override;
  void onKill(NodeId node) override;

  /// The node's current partial view of random peers.
  const View& view(NodeId node) const;

  const Params& params() const noexcept { return params_; }

  /// Total shuffles initiated (diagnostics), across both engines.
  std::uint64_t shufflesInitiated() const noexcept;

 private:
  void handleRequest(NodeId self, const net::Message& msg,
                     sim::ShardContext& ctx);
  void handleReply(NodeId self, const net::Message& msg);

  /// CYCLON merge: insert `received` into `self`'s view, skipping self-
  /// descriptors and duplicates, filling free slots first and then
  /// replacing entries listed in `sentIds[0, liveCount)` (consumed from
  /// the back; `liveCount` is decremented as victims are spent).
  void merge(NodeId self, std::span<const PeerDescriptor> received,
             std::span<const NodeId> sentIds, std::size_t& liveCount);

  PeerDescriptor selfDescriptor(NodeId node) const;

  Params params_;
  std::vector<View> views_;
  /// Ids sent in the outstanding shuffle request of each node (consumed by
  /// the merge when the reply arrives). Flat fixed-stride storage —
  /// `shuffleLength` slots per node, occupancy in pendingCount_ — because
  /// a vector per node costs a header plus a heap chunk for at most
  /// g-1 ids, which dominates the ids themselves at millions of nodes.
  std::vector<NodeId> pendingSent_;
  std::vector<std::uint8_t> pendingCount_;
  /// Shuffles initiated per shard (no cross-worker contention; summed
  /// into shufflesInitiated()). Slot 0 also counts own_'s steps.
  std::vector<std::uint64_t> shuffles_;
  /// The context step() and the router routes run on: shard 0, the
  /// instance transport, one RNG stream from the instance seed.
  sim::ShardContext own_;
};

}  // namespace vs07::gossip
