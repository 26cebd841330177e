// ShardedEngine — intra-run parallelism for the cycle-driven simulation:
// one scenario on all cores, bit-identical for any worker count.
//
// The population is partitioned into P shards (shard = node id mod P, one
// worker per shard, P = --engine-threads). Every timing model runs one
// schedule. A cycle spans a fixed number of slots, one tick each, and node
// n acts at its own slot offset:
//
//   CycleSync  kStepBatches slots; node n steps at batchOf(n). Splitting
//              the cycle bounds in-flight exchanges to population /
//              kStepBatches per round: a single barrier over the whole
//              population would buffer one full round of requests at
//              once (GiBs of outbox slots at 10M nodes).
//   jittered   ticksPerCycle slots; node n's timer fires at
//              timerPhaseOf(n), a hash of the id.
//
// Work runs in parallel phases separated by barriers (common/task_pool):
//
//   worklist   every shard buckets its alive nodes by slot offset.
//   tick       every shard delivers the stored messages due at this tick,
//              in canonical order, then steps the nodes of this slot; all
//              sends are buffered, nothing is delivered.
//   deliver    every shard gathers the buffered messages addressed to its
//              nodes, parks the ones a latency draw made due later in its
//              delivery store, sorts the rest into canonical
//              (destination, sender, send-seq) order and runs the
//              protocol handlers; replies are buffered for the next
//              round. Rounds repeat until the tick is quiet (two for
//              CYCLON/VICINITY: request, reply).
//   boundary   sequential, at the cycle's end: buffer upkeep, then the
//              controls. Churn, probes and Network membership mutations
//              happen only here, so the parallel phases see an immutable
//              population.
//
// Ticks run in conservative windows. At each barrier the coordinator
// computes the safe horizon
//
//   horizon = min(next event time across shards) + lookahead,
//
// where the next event time is the earlier of the next occupied slot and
// the earliest stored delivery, and the lookahead is the minimum message
// latency (LatencyModel::minLatencyTicks()). Every tick below the horizon
// runs without further coordination: a message sent at tick t arrives no
// earlier than t + lookahead >= horizon. With lookahead 0 (CycleSync,
// latency-free jittered timing, or a zero latency floor) a window is one
// tick and the deliver rounds carry that tick's request/reply cascade.
// With a floor of 1 or more, the one deliver round after each tick parks
// everything sent in it. Stored messages due past the cycle's end carry
// over to later cycles.
//
// Determinism: cross-node effects travel only through buffered messages;
// within a phase every callback touches only the acting node's state (see
// sim/sharded.hpp for the contract). Delivery order per destination node
// is fixed by the canonical sort, send order per sender is fixed by the
// sender's own execution, every random draw (latency draws included)
// comes from a per-node stream derived with deriveStreamSeed(seed, node,
// eventIndex), and slot offsets are pure functions of the node id. None
// of these depend on the shard layout or thread scheduling, so runs with
// 1, 2, or 8 workers produce bit-identical views, records and reports.
// The semantics intentionally differ from the sequential Engine, whose
// CycleSync sweep interleaves in-cycle exchanges in an order-dependent
// way and whose shared instance RNGs (timer phases in spawn order,
// latency draws in global send order) cannot be reproduced shard-locally.
// The sharded schedule is its own reference, pinned by the determinism
// suites and tests/sim/sharded_schedule_golden_test.cpp.
//
// Memory: all buffers (outboxes, inbox indexes, worklists, payload slots,
// delivery stores) are recycled, and their capacity is settled at cycle
// boundaries, so a steady-state cycle allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "net/message.hpp"
#include "net/message_pool.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/sharded.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {

/// The parallel engine. Drives ShardedProtocols over `threads` workers;
/// Controls (churn, probes) run sequentially at cycle boundaries exactly
/// as under sim::Engine. Under CycleSync a cycle spans kStepBatches
/// ticks, and node n steps in cycle c at tick c * kStepBatches +
/// batchOf(n). Under jittered timing a cycle spans ticksPerCycle ticks,
/// node n's timer fires at c * ticksPerCycle + timerPhaseOf(n), and
/// latency draws count in ticks.
class ShardedEngine final : public CycleDriver {
 public:
  /// Slots (ticks) per CycleSync cycle: the step sub-batches that bound
  /// in-flight exchange buffers to population/kStepBatches per round — at
  /// 10M nodes the difference between hundreds of MiB and several GiB of
  /// resident outbox slots. Part of the deterministic schedule: results
  /// depend on this constant, never on the thread count.
  static constexpr std::uint32_t kStepBatches = 64;
  /// Nodes per batch stripe: ids [16k, 16k+16) share a batch, so every
  /// batch spreads over all shards for any worker count up to 16.
  static constexpr std::uint32_t kBatchStripe = 16;
  /// Cycles a bucket must sit at over four times the slots its demand
  /// level asks for before the excess is released (hysteresis:
  /// steady-state bursts must never trigger trim/regrow churn, only
  /// genuine one-offs like the bootstrap hub funnel do).
  static constexpr std::uint32_t kTrimAfterCycles = 8;

  /// CycleSync timing unless `timing` says otherwise; every model runs the
  /// schedule described in the file comment. CycleSync with a latency
  /// model is a contract violation: its ticks are step batches, not time,
  /// so there is nothing to delay along — use jitteredLatency for delayed
  /// traffic.
  ShardedEngine(Network& network, std::uint64_t seed, std::uint32_t threads,
                TimingConfig timing = TimingConfig::cycleSync());
  ~ShardedEngine() override;

  /// Registers a protocol; per node, protocols step in registration order.
  void addProtocol(ShardedProtocol& protocol);

  /// Worker/shard count (fixed at construction).
  std::uint32_t threadCount() const noexcept { return shardCount_; }

  /// Shard owning `node` under this engine's partition.
  std::uint32_t shardOf(NodeId node) const noexcept {
    return node % shardCount_;
  }
  /// Step sub-batch of `node` (partition-independent).
  static std::uint32_t batchOf(NodeId node) noexcept {
    return (node / kBatchStripe) % kStepBatches;
  }

  /// Gossip messages handed to the barrier senders so far (all shards).
  std::uint64_t messagesSent() const noexcept;
  /// Messages dropped because the destination was dead (CYCLON's implicit
  /// failure detection — mirrors MessageRouter::droppedDead).
  std::uint64_t droppedDead() const noexcept;
  /// Messages no registered protocol claimed (always 0 when wired right).
  std::uint64_t droppedUnroutable() const noexcept;

  /// Latency-delayed messages currently stored across all shard queues
  /// (in flight past the current tick; drains to zero only when traffic
  /// stops). Always 0 without a latency model.
  std::size_t storedInFlight() const noexcept;

  /// Timer phase offset of `node` within the cycle span — a pure hash of
  /// the node id (unlike the sequential Engine's spawn-order draws), so
  /// the jittered event schedule is identical for every thread count.
  std::uint32_t timerPhaseOf(NodeId node) const noexcept {
    return static_cast<std::uint32_t>(
        deriveStreamSeed(streamSeed_ ^ 0x7068617365ULL,  // "phase"
                         node) %
        timing_.ticksPerCycle);
  }

 private:
  /// One buffered message awaiting its barrier.
  struct Pending {
    NodeId to = kNoNode;
    std::uint32_t seq = 0;  ///< per-sender send counter (canonical tiebreak)
    /// Arrival tick: send tick + latency draw (the send tick without a
    /// latency model).
    std::uint64_t dueTick = 0;
    net::Message msg;       ///< sender id travels in msg.from
  };
  /// A latency-delayed message parked in a shard's delivery store: the
  /// payload lives in the worker's MessagePool, the due tick in the
  /// worker's ShardDeliveryQueue entry, and (from, seq) ride along for
  /// the canonical per-tick delivery sort.
  struct StoreRef {
    NodeId to;
    NodeId from;
    std::uint32_t seq;
    net::MessagePool::Slot slot;
  };
  /// Slot-recycled outbox bucket (one per (worker, parity, dest shard)).
  struct Bucket {
    std::vector<Pending> slots;
    std::size_t count = 0;
    /// Highest round burst this cycle (tracked when rounds are cleared;
    /// reset at the boundary), and its smoothed level across cycles —
    /// what boundary growth and the trim size the bucket by (see
    /// maintainBuffers).
    std::size_t cyclePeak = 0;
    double level = 0;
    /// Consecutive cycles with far more slots than the level asks for.
    /// The star bootstrap funnels the whole population at one hub,
    /// sizing a few buckets to that one-off burst; once traffic has
    /// stayed far below it for kTrimAfterCycles cycles, the excess slots
    /// are released.
    std::uint32_t excessCycles = 0;
  };
  /// Sorted-delivery index entry: where a due message lives.
  struct InRef {
    NodeId to;
    NodeId from;
    std::uint32_t seq;
    std::uint32_t srcShard;
    std::uint32_t slot;
  };

  /// Buffers sends into the owning worker's current-parity outbox.
  class BarrierSender final : public net::Transport {
   public:
    void send(NodeId to, net::Message&& msg) override;
    ShardedEngine* engine = nullptr;
    std::uint32_t shard = 0;
    /// The owning worker's context: latency draws come from the acting
    /// node's event stream (ctx->rng()), interleaved with the protocol's
    /// own draws in send order — deterministic for any thread count.
    ShardContext* ctx = nullptr;
    /// High-water payload capacities seen by this shard's sends. Slot
    /// buffers circulate with protocol scratch via swap, so every buffer
    /// is topped up to these the first time it passes through send();
    /// without that, a buffer warmed by a small message type keeps
    /// reallocating whenever it later meets a larger one.
    std::size_t entryCap = 0;
    std::size_t idCap = 0;
   };

  /// Grows per-node bookkeeping when churn spawns fresh ids.
  struct GrowthTracker final : MembershipObserver {
    explicit GrowthTracker(ShardedEngine& engine) : engine(engine) {}
    void onReserve(NodeId count) override {
      engine.eventCount_.reserve(count);
      engine.sendSeq_.reserve(count);
    }
    void onSpawn(NodeId node) override { engine.ensureNode(node); }
    void onKill(NodeId /*node*/) override {}
    ShardedEngine& engine;
  };

  /// Per-shard worker state (exclusive to one parallelFor index).
  struct Worker {
    explicit Worker(std::uint32_t shard, BarrierSender& sender)
        : ctx(shard, sender) {}
    ShardContext ctx;
    /// This cycle's alive nodes of the shard, bucketed by slot offset.
    std::vector<std::vector<NodeId>> worklist;
    /// Sorted index of messages due at this shard in the current round.
    std::vector<InRef> inbox;
    /// Payloads of latency-delayed messages addressed to this shard,
    /// keyed by arrival tick in `dueQueue`.
    net::MessagePool store;
    ShardDeliveryQueue<StoreRef> dueQueue;
    /// Per-tick scratch: refs popped due this tick, canonically sorted.
    std::vector<StoreRef> dueScratch;
    /// store.capacity() as the last boundary left it: a larger value
    /// means checkIn() minted cold slots mid-cycle.
    std::size_t storeSlots = 0;
    /// Smoothed per-cycle peak of messages stored at once.
    double storeLevel = 0;
    std::uint64_t droppedDead = 0;
    std::uint64_t droppedUnroutable = 0;
  };

  enum class Phase {
    kWorklist,  ///< bucket the shard's alive nodes by slot offset
    kTick,      ///< stored deliveries due now, then the slot's steps
    kDeliver,   ///< one round over the read-parity outboxes
  };

  void runOneCycle() override;
  void runPhase(std::size_t shard);
  void buildWorklist(std::uint32_t shard);
  /// Delivers everything stored due <= tick_ (canonical order), then
  /// steps this tick's slot.
  void tickPhase(std::uint32_t shard);
  /// Gathers the read-parity messages addressed to this shard, parks the
  /// ones due after tick_ in the store, and delivers the rest in
  /// canonical order.
  void deliverPhase(std::uint32_t shard);
  /// Delivers one message: a dead destination drops it (droppedDead),
  /// otherwise the first protocol that claims it handles it
  /// (droppedUnroutable when none does).
  void dispatch(Worker& w, NodeId to, const net::Message& msg);
  /// Slot offset of `node` within its cycle.
  std::uint32_t slotOf(NodeId node) const noexcept {
    return timing_.mode == TimingMode::kCycleSync ? batchOf(node)
                                                  : timerPhaseOf(node);
  }
  void ensureNode(NodeId node);
  /// Cycle-boundary buffer upkeep (sequential): sizes buckets, stores,
  /// queues and inboxes for the next cycle, trims buckets whose slot
  /// count has sat far above the traffic for kTrimAfterCycles cycles,
  /// and re-warms every payload buffer when the high-water payload
  /// capacity grew or a store minted cold slots. All of it converges
  /// within the first cycles after (re)bootstrap; afterwards this is a
  /// cheap scan of the O(threads^2) bucket headers.
  void maintainBuffers();
  Bucket& outbox(std::uint32_t worker, std::uint32_t parity,
                 std::uint32_t destShard) {
    return outboxes_[(worker * 2 + parity) * shardCount_ + destShard];
  }
  /// Reseeds ctx's RNG to the acting node's next event stream.
  void seedEventRng(ShardContext& ctx, NodeId node) {
    ctx.rng_.reseed(deriveStreamSeed(streamSeed_, node, eventCount_[node]++));
  }
  std::uint64_t pendingAt(std::uint32_t parity) const;

  const std::uint32_t shardCount_;
  const std::uint64_t streamSeed_;
  const std::uint32_t slotCount_;
  TaskPool pool_;
  GrowthTracker growth_{*this};
  std::vector<ShardedProtocol*> protocols_;
  std::vector<BarrierSender> senders_;
  std::vector<Worker> workers_;
  /// [worker][parity][destShard] flattened (see outbox()).
  std::vector<Bucket> outboxes_;
  /// Per-node monotone event counter: the `index` of every
  /// deriveStreamSeed(seed, node, index) draw (sized to totalCreated()).
  std::vector<std::uint32_t> eventCount_;
  /// Per-node monotone send counter: the canonical delivery tiebreak.
  std::vector<std::uint32_t> sendSeq_;
  /// Slot-buffer capacities all outbox slots were last warmed to (see
  /// rewarmBuffers); lag the senders' high-water caps only while those
  /// are still growing, i.e. during the first cycles.
  std::size_t warmedEntryCap_ = 0;
  std::size_t warmedIdCap_ = 0;
  std::uint32_t parity_ = 0;  ///< outbox side written by this phase
  /// Start of the current cycle; the schedule position itself is tick_
  /// (both coordinator-written between barriers).
  std::uint64_t cycleStartTick_ = 0;
  /// Per slot offset: 1 when any shard has nodes at that offset this
  /// cycle (coordinator aggregate of the worklists).
  std::vector<std::uint8_t> offsetOccupied_;
  /// Single persistent phase thunk: parallelFor never boxes a fresh
  /// closure, keeping steady-state cycles allocation-free.
  Phase phase_ = Phase::kWorklist;
  std::function<void(std::size_t)> phaseFn_;
};

}  // namespace vs07::sim
