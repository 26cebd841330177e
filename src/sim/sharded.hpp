// Sharded-execution protocol interface (see sim/sharded_engine.hpp).
//
// A ShardedProtocol is the protocol contract of the sharded engine: the
// population is partitioned into shards, each driven by one worker, and
// every callback for node n may touch ONLY
//   * per-node state indexed by n (views_[n], pendingSent_[n], ...),
//   * read-only shared state (Network attributes, protocol params), and
//   * the resources handed in through its ShardContext.
// Cross-node effects flow exclusively through ctx.transport(): sends are
// buffered by the engine and delivered after a barrier, to every
// destination node in canonical (sender, send-sequence) order — so the
// run's results are a pure function of the seed, independent of the
// worker count, the shard layout, and OS scheduling.
//
// Randomness discipline: under the sharded engine every callback draws
// from ctx.rng(), a stream derived via deriveStreamSeed(engineSeed, node,
// perNodeEventIndex) — the same derivation discipline
// analysis::ParallelSweep and runtime::NodeProcess use. A node's streams
// depend only on its own (deterministic) event history, never on which
// thread ran it.
//
// The gossip protocols (gossip::Cyclon, gossip::Vicinity) keep one body
// per step and per handler on this contract. Their sequential entry
// points (CycleProtocol::step and the MessageRouter routes) run the same
// bodies on a ShardContext the instance owns: shard 0, the instance's
// transport, and one RNG stream seeded from the instance seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"

namespace vs07::sim {

/// The resource set of any protocol callback: an RNG stream, a
/// transport, scratch buffers and the shard index that per-shard counters
/// are kept under. The sharded engine owns one per worker and reseeds its
/// RNG before each callback; a protocol's own context keeps one stream
/// for its instance. A worker's context is exclusive to that worker.
/// Scratch buffers are recycled between callbacks (reset/clear before
/// use).
class ShardContext {
 public:
  /// `seed` seeds rng(); the sharded engine reseeds it per callback, so
  /// its workers leave it at 0.
  ShardContext(std::uint32_t shard, net::Transport& transport,
               std::uint64_t seed = 0)
      : shard_(shard), transport_(&transport), rng_(seed) {}

  /// The acting node's RNG stream for this callback (under the sharded
  /// engine, reseeded before each step/delivery from the node's event
  /// counter).
  Rng& rng() noexcept { return rng_; }

  /// Where sends go. Under the sharded engine, a barrier-buffered sender:
  /// messages land at their destination after the current parallel
  /// phase, in canonical order. Same move-only contract as every
  /// net::Transport (the payload is recycled).
  net::Transport& transport() noexcept { return *transport_; }

  /// Message-assembly scratch for steps (reset before use).
  net::Message& messageScratch() noexcept { return messageScratch_; }

  /// Message-assembly scratch for handler replies (reset before use). A
  /// transport that delivers synchronously (net::ImmediateTransport) runs
  /// the handler while the step's request still sits in
  /// messageScratch().
  net::Message& replyScratch() noexcept { return replyScratch_; }

  /// Id-list scratch (reply bookkeeping and the like).
  std::vector<NodeId>& idScratch() noexcept { return idScratch_; }

  /// Descriptor-pool scratch (proximity merges).
  std::vector<net::PeerDescriptor>& poolScratch() noexcept {
    return poolScratch_;
  }

  /// Which shard this context drives (index per-shard counters with it).
  std::uint32_t shard() const noexcept { return shard_; }

 private:
  friend class ShardedEngine;
  std::uint32_t shard_;
  net::Transport* transport_;
  Rng rng_;
  net::Message messageScratch_;
  net::Message replyScratch_;
  std::vector<NodeId> idScratch_;
  std::vector<net::PeerDescriptor> poolScratch_;
};

/// A protocol instance that can run under the sharded engine. Implemented
/// by gossip::Cyclon, gossip::Vicinity and gossip::MultiRing.
class ShardedProtocol {
 public:
  virtual ~ShardedProtocol() = default;

  /// Called once when the protocol is registered, with the shard count —
  /// size per-shard counters here.
  virtual void onShardedAttach(std::uint32_t shardCount) = 0;

  /// One active gossip step of `self`. Runs on the worker owning self's
  /// shard.
  virtual void shardStep(NodeId self, ShardContext& ctx) = 0;

  /// Delivers one message addressed to `to` if this protocol handles its
  /// (kind, channel); returns whether it was handled. Runs on the worker
  /// owning to's shard.
  virtual bool shardDeliver(NodeId to, const net::Message& msg,
                            ShardContext& ctx) = 0;
};

}  // namespace vs07::sim
