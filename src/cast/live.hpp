// Live push + pull dissemination — the paper's §8 future work:
//
//   "We have explicitly not considered pull-based dissemination. We
//    expect it to significantly improve the efficiency of the protocol in
//    terms of reliability. However, additional issues have to be taken
//    into account, such as the pull frequency, the duration for which
//    nodes maintain old messages, the size of buffers on nodes, ..."
//
// LiveCast runs dissemination through the transport against the *current*
// protocol views (not a frozen snapshot): publish() pushes a message with
// RINGCAST/RANDCAST forwarding, and each gossip cycle nodes optionally
// send an anti-entropy PullRequest to a random peer, which pushes back
// ids the requester is missing. Pull converts push misses (dead
// forwarding paths, §7.2/§7.3) into short delivery delays, bounded by the
// very §8 knobs this module exposes: pull frequency, buffer capacity, and
// digest length.
//
// One pull protocol: a PullRequest advertises a rotating window of the
// requester's buffer (explicit [lo, hi] id bounds plus the ids held
// within), and the answer spends its budget on ids drawn uniformly at
// random among the useful ones in the window — the random-useful policy
// of Sanghavi et al., "Gossiping with Multiple Messages".
//
// Sustained traffic: bookkeeping is bounded in the number of messages
// ever published. At most Params::maxTrackedMessages ids carry full
// per-message state (stats + an O(N) delivery bitmap) in one table kept
// in publish order; beyond that publishing retires one (the first
// completed, else the oldest), leaving only the SteadyStateStats
// counters — so a publish *rate* holds a memory frontier of O(cap * N)
// instead of O(messages * N), and a warm table recycles retired records
// without allocating.
//
// Per message and node the cost is a small constant: each node's
// MessageStore is a flat FIFO plus an open-addressing id set (no per-id
// heap node), and answering a pull sorts the requester's digest once
// and binary-searches it, so even a frame-sized digest off the wire
// costs O((digest + buffer) log digest), not digest x buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/expect.hpp"
#include "common/id_set.hpp"
#include "common/rng.hpp"
#include "gossip/cyclon.hpp"
#include "gossip/multiring.hpp"
#include "gossip/vicinity.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"

namespace vs07::cast {

/// Bounded per-node buffer of messages seen, in arrival order. Eviction
/// is FIFO: once capacity is exceeded the oldest message is forgotten and
/// can no longer be served to pulling peers (§8's "duration for which
/// nodes maintain old messages").
///
/// Two flat structures, a few dozen bytes per buffered id: the FIFO is
/// one vector plus a head index (compacted once the consumed prefix
/// reaches the capacity, so buffered() is one contiguous span), and the
/// seen-set is an IdSet kept at load <= 1/2. Both grow with the ids
/// actually buffered, not with the capacity.
///
/// Caveat: forgetting implies re-forwarding on re-reception (pinned by
/// message_store_test). Under *asynchronous* delivery this rule turns
/// supercritical when capacity is small relative to the ids in flight —
/// each delivery of an evicted id spawns a fresh fanout-wide wave —
/// so latency-model experiments should size buffers above the number of
/// concurrently circulating messages.
class MessageStore {
 public:
  explicit MessageStore(std::uint32_t capacity = 64);

  bool hasSeen(std::uint64_t dataId) const { return seen_.contains(dataId); }

  /// Records a message; evicts the oldest beyond capacity. No-op if seen.
  void remember(std::uint64_t dataId);

  /// Ids currently buffered (oldest first). Valid until the next
  /// remember() or clear(). A pull window is a subspan of it.
  std::span<const std::uint64_t> buffered() const noexcept {
    return {fifo_.data() + head_, fifo_.size() - head_};
  }

  std::size_t size() const noexcept { return fifo_.size() - head_; }

  /// Has capacity ever forced an id out? While false, this node's
  /// buffer is its complete reception history — a pull digest may then
  /// open its window down to id 0, because "not buffered" provably
  /// means "never received" (a fresh joiner must be able to recover
  /// ids older than everything it holds).
  bool hasEvicted() const noexcept { return evicted_; }

  /// Highest id ever evicted (0 while hasEvicted() is false): this
  /// node's recovery horizon. Eviction is FIFO by *arrival*, which is
  /// jumbled across nodes under delivery latency, so an evicted id can
  /// still sit inside the [lo, +inf) window a pull digest advertises.
  /// Without a receiver-side check, a peer re-serves it, the re-delivery
  /// re-buffers it and evicts *another* id early — positive feedback
  /// that winds steady-state traffic up into the supercritical regime.
  /// Pull-layer deliveries at or below this id are therefore dropped by
  /// LiveCast::handleData.
  std::uint64_t recoveryHorizon() const noexcept { return maxEvicted_; }

  /// Forgets every id and releases the buffers (a killed node's store
  /// holds no memory).
  void clear();

 private:
  std::uint32_t capacity_;
  bool evicted_ = false;
  std::uint64_t maxEvicted_ = 0;
  /// Buffered ids are fifo_[head_, size()), oldest first.
  std::vector<std::uint64_t> fifo_;
  std::size_t head_ = 0;
  IdSet seen_;
};

/// Delivery bookkeeping for one *tracked* published message.
struct LiveMessageStats {
  /// completedAtTick value while the message has not yet covered the
  /// alive population.
  static constexpr std::uint64_t kNeverCompleted = ~std::uint64_t{0};

  std::uint64_t dataId = 0;
  NodeId origin = kNoNode;
  /// Nodes first notified by the origin's push wave.
  std::uint64_t pushDelivered = 0;
  /// Nodes that got it later through pull recovery (the pull answer
  /// itself, or a push forward triggered by one — see kFlagRecoveryWave).
  std::uint64_t pullDelivered = 0;
  std::uint64_t redundantDeliveries = 0;
  /// Data messages sent for this id (push forwards + pull answers).
  std::uint64_t messagesSent = 0;
  /// Of messagesSent: messages addressed to a node dead at send time.
  std::uint64_t messagesToDead = 0;
  /// Nodes first notified per push hop (index 0 = the origin). Pull
  /// deliveries and recovery re-waves are excluded: this histogram
  /// describes only the origin's push wave.
  std::vector<std::uint64_t> newlyNotifiedPerHop;
  /// Highest origin-wave push hop that notified a node.
  std::uint32_t lastHop = 0;
  /// Engine ticks of the first (origin) and latest first-time delivery —
  /// the wave's extent in simulated time. Only meaningful when a clock is
  /// attached (LiveSession always attaches the engine); under an
  /// immediate transport both stamps equal the publish tick.
  std::uint64_t publishedAtTick = 0;
  std::uint64_t lastDeliveryTick = 0;
  /// Tick at which delivered() first reached the alive population size
  /// (kNeverCompleted until then). Approximate under churn: delivered
  /// counts nodes that may have died since, so completion can fire while
  /// a late joiner is still missing — the pull layer covers the gap.
  std::uint64_t completedAtTick = kNeverCompleted;

  /// Wave duration in ticks (0 for synchronous waves).
  std::uint64_t spreadTicks() const noexcept {
    return lastDeliveryTick >= publishedAtTick
               ? lastDeliveryTick - publishedAtTick
               : 0;
  }

  std::uint64_t delivered() const noexcept {
    return pushDelivered + pullDelivered;
  }

  bool completed() const noexcept {
    return completedAtTick != kNeverCompleted;
  }
};

/// Aggregate accounting that stays O(1) in the number of messages ever
/// published — the steady-state view of a sustained publish rate.
struct SteadyStateStats {
  std::uint64_t published = 0;
  /// Retired having covered the alive population.
  std::uint64_t retiredCompleted = 0;
  /// Retired by cap pressure while still missing nodes.
  std::uint64_t retiredAgedOut = 0;
  /// First-time deliveries / redundant receptions across tracked ids.
  std::uint64_t firstDeliveries = 0;
  std::uint64_t pushDeliveries = 0;
  std::uint64_t pullDeliveries = 0;
  std::uint64_t redundantDeliveries = 0;
  /// The live memory frontier: tracked ids now / at peak, and the bytes
  /// their delivery bitmaps hold. Bounded by maxTrackedMessages * N.
  std::uint64_t trackedNow = 0;
  std::uint64_t peakTracked = 0;
  std::uint64_t trackedBitmapBytes = 0;
  std::uint64_t peakTrackedBitmapBytes = 0;

  std::uint64_t retired() const noexcept {
    return retiredCompleted + retiredAgedOut;
  }

  /// Redundant receptions per first-time delivery (0 when nothing
  /// delivered yet) — the overhead of push fanout + pull re-sends.
  double redundancyRatio() const noexcept {
    return firstDeliveries == 0
               ? 0.0
               : static_cast<double>(redundantDeliveries) /
                     static_cast<double>(firstDeliveries);
  }

  /// Folds another instance's accounting into this one: counters add,
  /// peaks take the max, and the live-frontier gauges (trackedNow,
  /// trackedBitmapBytes) add because concurrent instances hold their
  /// memory simultaneously. Exact on integers, hence associative and
  /// commutative — but reduce per-shard copies in canonical (shard
  /// index) order anyway, matching the engine-wide merge discipline.
  void merge(const SteadyStateStats& other) noexcept {
    published += other.published;
    retiredCompleted += other.retiredCompleted;
    retiredAgedOut += other.retiredAgedOut;
    firstDeliveries += other.firstDeliveries;
    pushDeliveries += other.pushDeliveries;
    pullDeliveries += other.pullDeliveries;
    redundantDeliveries += other.redundantDeliveries;
    trackedNow += other.trackedNow;
    peakTracked = std::max(peakTracked, other.peakTracked);
    trackedBitmapBytes += other.trackedBitmapBytes;
    peakTrackedBitmapBytes =
        std::max(peakTrackedBitmapBytes, other.peakTrackedBitmapBytes);
  }
};

/// Live dissemination service. Register with Engine::addProtocol to give
/// the pull phase a heartbeat.
class LiveCast final : public sim::CycleProtocol,
                       public sim::MembershipObserver {
 public:
  struct Params {
    /// Push fanout F.
    std::uint32_t fanout = 3;
    /// Flood instead of fanout-limited forwarding: every forward goes to
    /// *all* current links (d-links first, then every r-link), ignoring
    /// `fanout`. The live twin of Strategy::kFlood.
    bool flood = false;
    /// A node issues one PullRequest every `pullInterval` of its own
    /// steps; 0 disables pulling (pure push, the paper's main setting).
    std::uint32_t pullInterval = 1;
    /// Ids per pull window (the buffer slice a PullRequest advertises).
    std::uint32_t digestLength = 16;
    /// Per-node message buffer capacity.
    std::uint32_t bufferCapacity = 64;
    /// Max messages pushed back per pull answer — one budget shared
    /// across all ids a digest exposes as missing.
    std::uint32_t pullBudget = 8;
    /// Hard cap on concurrently tracked messages (full LiveMessageStats
    /// + O(N) delivery bitmap). At the cap, publishing retires the
    /// first tracked id that already completed, else the oldest. This is
    /// the sustained-traffic memory bound.
    std::uint32_t maxTrackedMessages = 1024;
    /// When > 0 (and a clock is attached), a completed message is
    /// retired eagerly once it has lingered this many ticks past
    /// completion, keeping the tracked set near the true in-flight
    /// frontier instead of cap-sized. 0 keeps completed messages
    /// tracked until cap pressure — the single-wave experiments rely on
    /// querying stats() after the wave is done.
    std::uint64_t completedLingerTicks = 0;
  };

  /// `vicinity` may be null: then forwarding is pure RANDCAST; otherwise
  /// the hybrid Fig. 5 rule over the current ring neighbours is used
  /// (see useMultiRing for the §8 multi-ring d-link union).
  LiveCast(sim::Network& network, net::Transport& transport,
           sim::MessageRouter& router, const gossip::Cyclon& cyclon,
           const gossip::Vicinity* vicinity, Params params,
           std::uint64_t seed);

  LiveCast(const LiveCast&) = delete;
  LiveCast& operator=(const LiveCast&) = delete;

  /// Publishes a new message from `origin` (must be alive). The push wave
  /// completes synchronously (immediate transport) or as the transport
  /// delivers. Returns the new message id. May retire older tracked
  /// messages first (see Params::maxTrackedMessages).
  std::uint64_t publish(NodeId origin);

  // sim::CycleProtocol — the pull heartbeat.
  void step(NodeId self) override;

  // sim::MembershipObserver — joiners start with empty buffers.
  void onReserve(NodeId count) override;
  void onSpawn(NodeId node) override;
  void onKill(NodeId node) override;

  /// Stats of a *tracked* published message; retired ids reject. The
  /// reference is valid until the next publish().
  const LiveMessageStats& stats(std::uint64_t dataId) const;

  /// Is full per-message state still held for this id?
  bool isTracked(std::uint64_t dataId) const {
    return find(dataId) != nullptr;
  }

  /// Aggregate rates + the live memory frontier. O(tracked) per call.
  SteadyStateStats steadyStats() const;

  /// A node's message buffer (inspection/tests).
  const MessageStore& store(NodeId node) const {
    VS07_EXPECT(node < stores_.size());
    return stores_[node];
  }

  /// Switches d-link selection to the union of `rings`' current
  /// neighbours (§8 multi-ring forwarding). Call before publishing.
  void useMultiRing(const gossip::MultiRing& rings) { multiRing_ = &rings; }

  /// Attaches a clock: deliveries are stamped with the tick they landed
  /// on (LiveMessageStats::lastDeliveryTick), making wave durations
  /// measurable. LiveSession attaches the engine (simulated ticks); the
  /// real-socket runtime attaches its wall clock (milliseconds).
  void attachClock(const TickClock& clock) { clock_ = &clock; }

  /// Invoked on every local first-sight delivery: (node, dataId, hop,
  /// viaPull). Fires for the origin (hop 0) and for every node receiving
  /// a Data message it has not buffered — including a re-reception after
  /// buffer eviction, so consumers needing exactly-once must dedup by
  /// dataId. The runtime's NodeProcess uses this to record per-node
  /// first-delivery hops, which only exist origin-side in stats().
  using DeliveryHook =
      std::function<void(NodeId, std::uint64_t, std::uint32_t, bool)>;
  void setDeliveryHook(DeliveryHook hook) { deliveryHook_ = std::move(hook); }

  /// Overrides the next published dataId. Multi-process runs give each
  /// process a disjoint base (e.g. (selfId+1) << 32) so concurrently
  /// published messages can never collide on id. Ids only grow — the
  /// tracked table is searched by id in publish order — so `next` must
  /// not be below the next id.
  void setNextDataId(std::uint64_t next) {
    VS07_EXPECT(next >= nextDataId_);
    nextDataId_ = next;
  }

  /// Has `node` received message `dataId`? Tracked ids answer from the
  /// delivery bitmap; retired ids answer false (per-node knowledge is
  /// dropped at retirement).
  bool hasDelivered(std::uint64_t dataId, NodeId node) const;

  /// Miss ratio (percent) of a *tracked* `dataId` over the currently
  /// alive nodes.
  double missRatioPercentNow(std::uint64_t dataId) const;

  /// Total PullRequests sent (pull overhead numerator).
  std::uint64_t pullRequestsSent() const noexcept { return pullsSent_; }
  /// Total Data messages sent in answer to pulls.
  std::uint64_t pullAnswersSent() const noexcept { return pullAnswers_; }
  /// Total Data messages sent by push forwarding.
  std::uint64_t pushMessagesSent() const noexcept { return pushSent_; }
  /// Of pushMessagesSent: forwards belonging to a pull-recovery re-wave
  /// rather than the origin's push wave (kFlagRecoveryWave).
  std::uint64_t recoveryForwardsSent() const noexcept {
    return recoveryForwards_;
  }
  /// Total redundant Data deliveries (duplicates to alive nodes).
  std::uint64_t redundantDeliveries() const noexcept { return redundant_; }
  /// Pull-layer deliveries dropped because the id sat at or below the
  /// receiver's recovery horizon (MessageStore::recoveryHorizon) — the
  /// guard that keeps repair traffic from resurrecting evicted ids.
  std::uint64_t recoveryDropsBeyondHorizon() const noexcept {
    return recoveryDropped_;
  }

  /// Cumulative per-node load counters over every message so far, sized
  /// Network::totalCreated(). Sessions diff them around a publish to
  /// report load; under interleaved messages the attribution is
  /// approximate by construction.
  const std::vector<std::uint32_t>& forwardsPerNode() const noexcept {
    return forwardsPerNode_;
  }
  const std::vector<std::uint32_t>& receivedPerNode() const noexcept {
    return receivedPerNode_;
  }

  const Params& params() const noexcept { return params_; }

 private:
  void registerHandlers(sim::MessageRouter& router);
  void handleData(NodeId self, const net::Message& msg);
  void handlePullRequest(NodeId self, const net::Message& msg);
  /// `recovery`: this delivery was caused by the pull layer (a pull
  /// answer, or a forward descending from one) — counted as
  /// pullDelivered and kept out of the origin-wave hop histogram.
  void deliverLocally(NodeId self, std::uint64_t dataId, bool viaPull,
                      std::uint32_t hop, bool recovery);
  void forward(NodeId self, NodeId receivedFrom, std::uint64_t dataId,
               std::uint32_t hop, bool recovery);
  void enqueueData(NodeId to, NodeId from, std::uint64_t dataId,
                   std::uint32_t hop, bool viaPull, bool recovery);
  /// Trampoline: drains queued sends iteratively so that long forwarding
  /// chains (e.g. ring-only propagation) cannot overflow the call stack.
  void drainOutbox();

  /// One tracked message: its stats and the bitmap of nodes it reached.
  struct TrackedMessage {
    LiveMessageStats stats;
    std::vector<std::uint8_t> deliveredTo;
  };
  /// The tracked record of `dataId`, or nullptr once retired (or never
  /// published here): a binary search over the tracked prefix.
  const TrackedMessage* find(std::uint64_t dataId) const;
  TrackedMessage* find(std::uint64_t dataId) {
    return const_cast<TrackedMessage*>(std::as_const(*this).find(dataId));
  }
  /// Linger sweep + cap enforcement; runs before each publish.
  void reclaimTracked();
  /// Retires tracked_[index] into the steady-state counters.
  void retire(std::size_t index);
  /// Bytes currently held by tracked delivery bitmaps.
  std::uint64_t liveBitmapBytes() const;

  sim::Network& network_;
  net::Transport& transport_;
  const gossip::Cyclon& cyclon_;
  const gossip::Vicinity* vicinity_;
  const gossip::MultiRing* multiRing_ = nullptr;
  const TickClock* clock_ = nullptr;
  DeliveryHook deliveryHook_;
  Params params_;
  Rng rng_;

  std::vector<MessageStore> stores_;
  std::vector<std::uint64_t> stepCount_;
  /// Per-node buffer position where the next pull window starts.
  std::vector<std::size_t> pullWindowPos_;
  std::vector<std::uint32_t> forwardsPerNode_;
  std::vector<std::uint32_t> receivedPerNode_;
  /// Tracked messages are tracked_[0, trackedCount_), in publish order —
  /// ascending id, since ids only grow. Retiring one rotates it just past
  /// that prefix, where it keeps its bitmap and hop-histogram capacity
  /// for the next publish: at most maxTrackedMessages records ever
  /// exist, and a warm table publishes without allocating.
  std::vector<TrackedMessage> tracked_;
  std::size_t trackedCount_ = 0;
  SteadyStateStats steady_;
  std::uint64_t nextDataId_ = 1;
  /// One queued send; whether it answers a pull travels in the message
  /// itself (kFlagPullAnswer).
  struct Outgoing {
    NodeId to;
    net::Message msg;
  };
  /// FIFO outbox as a vector plus cursor (capacity is retained across
  /// drains; Data payloads own no heap buffers, so queueing is
  /// allocation-free in steady state).
  std::vector<Outgoing> outbox_;
  std::size_t outboxHead_ = 0;
  bool draining_ = false;
  /// forward() scratch. The link buffers are filled and consumed before
  /// any message is enqueued, so one set per instance suffices; the
  /// target list must survive the enqueue loop, which can re-enter
  /// forward() through a synchronous transport, so targets come from a
  /// per-nesting-depth pool (deque: growth keeps references stable).
  std::vector<NodeId> rlinkScratch_;
  std::vector<NodeId> dlinkScratch_;
  std::deque<std::vector<NodeId>> targetScratch_;
  std::size_t forwardDepth_ = 0;
  /// Pull-request scratch message (window ids buffer recycled per pull).
  net::Message pullScratch_;
  /// Answerer side: useful candidates, and the requester's window
  /// sorted for binary search.
  std::vector<std::uint64_t> pullCandidateScratch_;
  std::vector<std::uint64_t> pullDigestScratch_;
  std::uint64_t pullsSent_ = 0;
  std::uint64_t pullAnswers_ = 0;
  std::uint64_t pushSent_ = 0;
  std::uint64_t recoveryForwards_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t recoveryDropped_ = 0;
};

}  // namespace vs07::cast
