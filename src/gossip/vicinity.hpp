// VICINITY — proactive gossip-based construction of semantic/proximity
// overlays (Voulgaris & van Steen). The paper's d-link substrate: with the
// ring-distance proximity over random sequence ids, each node's view
// converges to the peers closest to it on the id ring, from which the two
// ring neighbours (successor, predecessor) — the d-links — are read.
//
// Two-layer design as in the original protocol: VICINITY exchanges draw
// candidates from both the vicinity view and the underlying CYCLON view,
// so fresh random peers keep feeding the proximity selection and the ring
// can form from any bootstrap topology.
//
// Every band an exchange forms comes from gossip/ring_band.hpp's keyed
// primitive. Views and offers carry (node, age) only: ring positions are
// read from a dense per-node table that the profile function fills once
// per node (onSpawn) and on every Network::setSeqId (onSeqIdChange), so
// the exchange makes no indirect call per candidate, CYCLON entries join
// the pool as they are, and no peer can claim a position of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/ring_band.hpp"
#include "gossip/view.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/sharded.hpp"

namespace vs07::gossip {

/// Maps a node to its position on the ring this VICINITY instance builds.
/// The default uses Network::seqId; the multi-ring extension (§8) derives
/// per-ring positions by salting the advertised sequence id, and the
/// domain-ring extension encodes a domain prefix into the high bits.
/// Called once per node at spawn and again when the node's sequence id
/// changes: it must be a pure function of the node's Network attributes.
using ProfileFn = std::function<SequenceId(NodeId)>;

/// The resolved deterministic links of one node (its ring neighbours).
struct RingNeighbors {
  NodeId successor = kNoNode;    ///< closest peer clockwise (higher id)
  NodeId predecessor = kNoNode;  ///< closest peer counter-clockwise
};

/// VICINITY protocol instance managing the proximity views of all nodes.
class Vicinity final : public sim::CycleProtocol,
                       public sim::MembershipObserver,
                       public sim::JoinHandler,
                       public sim::ShardedProtocol {
 public:
  struct Params {
    /// View length (the paper's vic = 20).
    std::uint32_t viewLength = 20;
    /// Entries offered per exchange.
    std::uint32_t exchangeLength = 10;
    /// Message channel: give each VICINITY instance (each ring) its own.
    std::uint8_t channel = 0;
    /// After a request timeout the failed peer is refused re-admission
    /// for this many of the node's own steps (negative caching; prevents
    /// neighbours from endlessly resurrecting a dead close peer).
    std::uint32_t failureBanSteps = 20;
  };

  /// `cyclon` provides the random-peer layer candidates. `profile` may be
  /// empty, defaulting to Network::seqId. Borrowed references must outlive
  /// the protocol. Handler registration uses the Vicinity* message kinds.
  Vicinity(sim::Network& network, net::Transport& transport,
           sim::MessageRouter& router, const Cyclon& cyclon, Params params,
           std::uint64_t seed, ProfileFn profile = {});

  Vicinity(const Vicinity&) = delete;
  Vicinity& operator=(const Vicinity&) = delete;

  // sim::CycleProtocol — one active proximity exchange, on the
  // instance's own context (see sim/sharded.hpp).
  void step(NodeId self) override;

  // sim::ShardedProtocol — the exchange and its handlers, one body each,
  // on the context they are given: a worker's under the sharded engine
  // (per-node RNG stream, per-worker scratch), the instance's own from
  // step() and the router routes. Each shard has its own band selector.
  // Claims only messages on this instance's channel, so multi-ring
  // dispatch works unchanged.
  void onShardedAttach(std::uint32_t shardCount) override;
  void shardStep(NodeId self, sim::ShardContext& ctx) override;
  bool shardDeliver(NodeId to, const net::Message& msg,
                    sim::ShardContext& ctx) override;

  // sim::JoinHandler — joiners start with an empty vicinity view and rely
  // on the CYCLON layer to meet candidates (the behaviour behind the
  // paper's Fig. 13 warm-up discussion).
  void onJoin(NodeId node, NodeId introducer) override;

  // sim::MembershipObserver — onSpawn and onSeqIdChange (re)compute the
  // node's ring position from the profile function.
  void onReserve(NodeId count) override;
  void onSpawn(NodeId node) override;
  void onKill(NodeId node) override;
  void onSeqIdChange(NodeId node) override;

  /// The node's proximity view (closest known peers by ring distance).
  const View& view(NodeId node) const;

  /// The node's current d-links, resolved from its view: the known peers
  /// with the smallest clockwise / counter-clockwise distance. kNoNode
  /// when the view is empty.
  RingNeighbors ringNeighbors(NodeId node) const;

  /// The node's `width` nearest known successors plus `width` nearest
  /// known predecessors on the band key (deduplicated, nearest first per
  /// direction). At convergence this is the circulant band C(1..width) —
  /// forwarding across it realises the §8 "Harary graphs of higher
  /// connectivity" extension: the d-link graph becomes H(2·width, n).
  std::vector<NodeId> ringBand(NodeId node, std::uint32_t width) const;

  /// Ring position of a node under this instance's profile function.
  SequenceId profileOf(NodeId node) const {
    VS07_EXPECT(node < profiles_.size());
    return profiles_[node];
  }

  const Params& params() const noexcept { return params_; }

 private:
  void handleRequest(NodeId self, const net::Message& msg,
                     sim::ShardContext& ctx);
  void handleReply(NodeId self, const net::Message& msg,
                   sim::ShardContext& ctx);

  /// Candidates = own vicinity view ∪ own cyclon view ∪ self descriptor,
  /// deduplicated, excluding `target`; the band of `exchangeLength - 1`
  /// around the *target's* profile, then self, fill `out` (best-for-target
  /// selection). The pre-trim pool is assembled in `pool` so `out`
  /// — typically a message's entries, whose capacity is retained by every
  /// outbox slot it circulates through — never holds more than the
  /// trimmed offer. Both are cleared first; steady state allocates
  /// nothing.
  void offerInto(NodeId self, NodeId target,
                 std::vector<PeerDescriptor>& pool, RingBand& band,
                 std::vector<PeerDescriptor>& out) const;

  /// Keeps the `viewLength` band around self among view ∪ incoming
  /// (deduplicated, banned peers skipped).
  void mergeByProximity(NodeId self, std::span<const PeerDescriptor> incoming,
                        std::vector<PeerDescriptor>& pool, RingBand& band);

  PeerDescriptor selfDescriptor(NodeId node) const;

  const Cyclon& cyclon_;
  Params params_;
  ProfileFn profile_;
  /// profile_(node) for every node, kept current by onSpawn and
  /// onSeqIdChange: the exchange reads ring positions here.
  std::vector<SequenceId> profiles_;
  std::vector<View> views_;
  /// Target of each node's outstanding request; a target that never
  /// replies by the next step is treated as failed and dropped from the
  /// view (timeout failure detection, enabling ring self-healing).
  std::vector<NodeId> pendingTarget_;

  /// Negative cache of recently failed peers (see Params::failureBanSteps).
  struct Ban {
    NodeId node;
    std::uint64_t expiresAtStep;
  };
  bool isBanned(NodeId self, NodeId peer) const;
  void ban(NodeId self, NodeId peer);
  std::vector<std::vector<Ban>> bans_;
  std::vector<std::uint64_t> stepCount_;

  /// Band selectors, one per shard (each worker touches only its own);
  /// slot 0 also serves own_. Reset and refilled by every selection, so
  /// their buffers settle and a steady-state exchange allocates nothing.
  std::vector<RingBand> bands_;
  /// The context step() and the router routes run on: shard 0, the
  /// instance transport, one RNG stream from the instance seed.
  sim::ShardContext own_;
};

}  // namespace vs07::gossip
