// NetworkModel — composable per-link network conditions, resolved at
// delivery-scheduling time.
//
// The paper's evaluation models the network as a uniform latency-free
// cloud: nodes fail whole, links never do. This layer adds the link-level
// adversity the robustness claims should be stress-tested against —
// loss (independent and bursty), duplication, reordering, partitions
// that heal, heterogeneous cluster latency, and bandwidth-induced
// queueing — while preserving the simulator's core invariants:
//
//   * Determinism: every random choice flows through the model's own
//     Rng stream (seeded from the scenario seed). A given scenario
//     replays bit-for-bit at the same seed regardless of thread count,
//     because one model serves exactly one single-threaded simulation
//     and parallel experiment runners derive one seed per cell.
//   * Zero allocations on the clean-link fast path: resolving a message
//     that is neither lost, duplicated, reordered nor queued performs
//     only RNG draws, array lookups, and counter updates. Only the
//     adversity paths (duplication's payload copy, burst loss's lazily
//     grown per-link state) may allocate.
//   * Scheduling-time resolution: conditions are applied once, inside
//     sim::LatencyTransport::send, by translating them into the delivery
//     delay (or the absence) of an event on the engine's shared queue —
//     no per-tick sweeps over links, no per-link queues to drain.
//
// The model keeps the NetworkConditions value it was built from and
// resolves each send straight from it: a PartitionSchedule vetoes
// cross-group traffic during its windows, loss, burst loss, duplication
// and reordering decide the message's fate (copies, extra delay),
// ClusterLatency replaces the global latency draw with intra/inter-cluster
// distributions, and an egress BandwidthCap turns sender overload into
// FIFO queueing delay. Besides its rng and counters, its mutable state
// is keyed by sender: the burst chain of each directed (src, dst) link
// and each sender's next free egress slot.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "net/node_id.hpp"
#include "sim/network.hpp"
#include "sim/timing.hpp"

namespace vs07::sim {

/// The fate of one message crossing a link: how many copies arrive
/// (0 = lost) and how many ticks of extra delay they carry on top of
/// the base latency draw.
struct LinkFate {
  std::uint32_t copies = 1;
  std::uint64_t extraDelayTicks = 0;
};

// -- partitions ----------------------------------------------------------

/// Alive nodes in converged-ring order: ascending SequenceId, node id as
/// tiebreak. The order every ring-structured failure/partition helper
/// shares (and the order sim/failures' §5.1 arc kill has always used).
std::vector<NodeId> ringOrder(const Network& network);

/// The §5.1 contiguous arc: round(fraction * alive) nodes starting at a
/// uniformly random ring position. Consumes exactly one rng draw — the
/// same draw killContiguousArc has always made, so arc selection is
/// bit-compatible between the kill and partition APIs (pinned by
/// tests/sim/partition_fold_test.cpp).
std::vector<NodeId> contiguousRingArc(const Network& network, double fraction,
                                      Rng& rng);

/// A time-table of network partitions: the population is split into
/// groups, and during each [startTick, endTick) window all cross-group
/// traffic is dropped; outside the windows the partition is healed and
/// traffic flows freely. Group membership is fixed at construction;
/// nodes spawned later (churn joiners) are assigned deterministically by
/// hashing their id.
class PartitionSchedule {
 public:
  /// One blackout window, [startTick, endTick) in engine ticks. Under
  /// CycleSync with ticksPerCycle 1, tick t is processed by cycle t+1,
  /// so a window of [w, w+d) blacks out cycles w+1 .. w+d.
  struct Window {
    std::uint64_t startTick = 0;
    std::uint64_t endTick = 0;
  };

  PartitionSchedule() = default;

  /// Splits the current alive population into `groups` seq-contiguous
  /// ring segments of (near-)equal size — the generalized §5.1
  /// partitioned ring: every group is an arc, so each side keeps a
  /// connected chain of d-links.
  static PartitionSchedule splitRing(const Network& network,
                                     std::uint32_t groups);

  /// Two groups: the §5.1 contiguous arc (group 1, selected exactly as
  /// killContiguousArc selects its victims from `rng`) versus everyone
  /// else (group 0).
  static PartitionSchedule splitRingArc(const Network& network,
                                        double fraction, Rng& rng);

  /// Adds a blackout window. Windows may not overlap and must be added
  /// in ascending order.
  void addWindow(std::uint64_t startTick, std::uint64_t endTick);

  /// True while some window covers `tick`.
  bool active(std::uint64_t tick) const noexcept;

  /// The node's group. Ids beyond the construction-time population
  /// (churn joiners) hash into a group deterministically.
  std::uint32_t groupOf(NodeId node) const noexcept;

  /// Does the schedule veto a (src → dst) crossing at `tick`?
  bool blocks(NodeId src, NodeId dst, std::uint64_t tick) const noexcept {
    return active(tick) && groupOf(src) != groupOf(dst);
  }

  std::uint32_t groupCount() const noexcept { return groupCount_; }

  /// Members of `group` among the construction-time population, in the
  /// group-assignment order (ring order for the split* factories).
  std::vector<NodeId> members(std::uint32_t group) const;

 private:
  std::vector<std::uint32_t> groupOfNode_;  // index = NodeId
  std::uint32_t groupCount_ = 1;
  std::vector<Window> windows_;
};

// -- burst loss, latency heterogeneity and bandwidth ---------------------

/// Bursty loss: the classic Gilbert-Elliott two-state Markov chain, one
/// chain per directed link. Each crossing first advances the link's
/// state (Good ↔ Bad with the transition probabilities), then drops
/// with that state's loss rate, so losses cluster in bursts instead of
/// sprinkling independently. A link's state is created on its first
/// crossing (an allocation, hence burst loss is not part of the
/// clean-link zero-alloc contract); idle links cost nothing.
struct BurstLoss {
  double pGoodToBad = 0.05;  ///< per-crossing chance Good → Bad
  double pBadToGood = 0.25;  ///< per-crossing chance Bad → Good
  double lossGood = 0.0;     ///< loss rate while Good
  double lossBad = 0.75;     ///< loss rate while Bad
};

/// Cluster-based heterogeneous latency: nodes hash into `clusters`
/// groups; same-cluster traffic draws from `intra`, cross-cluster
/// traffic from `inter`. Replaces the single global LatencyModel draw
/// when configured (clusters >= 1).
struct ClusterLatency {
  std::uint32_t clusters = 0;  ///< 0 = disabled (use the global model)
  LatencyModel intra = LatencyModel::fixed(1);
  LatencyModel inter = LatencyModel::uniform(2, 8);
};

/// Per-node egress bandwidth cap: a node sends at most `messagesPerTick`
/// messages per tick; excess sends queue FIFO behind the sender's
/// earlier traffic, surfacing as added delivery delay. 0 = unlimited.
struct BandwidthCap {
  std::uint32_t messagesPerTick = 0;
};

// -- the composed model --------------------------------------------------

/// Declarative, value-type description of a NetworkModel — what
/// analysis::ScenarioBuilder's network hooks accumulate. Every default
/// is "no adversity"; any() tells whether a model needs building at all.
struct NetworkConditions {
  double lossRate = 0.0;            ///< Bernoulli per-crossing loss
  bool burstLoss = false;           ///< enable Gilbert-Elliott loss
  BurstLoss burst{};
  /// Chance that a crossing delivers a second copy at the same delay
  /// (the receiver counts it as a redundant delivery).
  double duplicateRate = 0.0;
  /// Chance that a crossing picks up 1..reorderMaxTicks ticks of extra
  /// delay, letting later sends overtake it.
  double reorderRate = 0.0;
  std::uint32_t reorderMaxTicks = 3;
  ClusterLatency clusterLatency{};
  BandwidthCap bandwidth{};
  /// First engine cycle at which loss, burst loss, duplication,
  /// reordering and the bandwidth cap engage; links are clean before
  /// it. The §7 methodology knob: warm the overlay up undisturbed, then
  /// degrade the links (sustained loss during warm-up starves CYCLON
  /// views instead of testing dissemination). Cluster latency is *not*
  /// gated — heterogeneous delay shaping overlay construction is the
  /// point of modelling it.
  std::uint64_t startCycle = 0;

  /// Declarative partition plan (resolved against the built Network).
  struct PartitionPlan {
    enum class Kind : std::uint8_t { kNone, kRingSplit, kRingArc };
    Kind kind = Kind::kNone;
    std::uint32_t groups = 2;   ///< kRingSplit
    double arcFraction = 0.25;  ///< kRingArc
    /// Blackout windows in *cycles*, [startCycle, endCycle): the window
    /// covers the cycles executed while Engine::cycle() is in range —
    /// whoever builds the model multiplies by ticksPerCycle.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windowsCycles;
  };
  PartitionPlan partition{};

  bool any() const noexcept {
    return lossRate > 0.0 || burstLoss || duplicateRate > 0.0 ||
           reorderRate > 0.0 || clusterLatency.clusters > 0 ||
           bandwidth.messagesPerTick > 0 ||
           partition.kind != PartitionPlan::Kind::kNone;
  }
};

/// The per-link condition layer one simulated system traffics through
/// (see file comment for the invariants). Owned by the scenario;
/// sim::LatencyTransport consults it once per send.
class NetworkModel {
 public:
  /// Resolves every send from `conditions`. The partition plan needs the
  /// population's ring order, hence the Network, and its
  /// cycle-denominated windows scale by `ticksPerCycle`; `seed` feeds the
  /// model's private rng stream (the loss, burst, duplication and reorder
  /// draws and the arc-position draw).
  NetworkModel(const NetworkConditions& conditions, const Network& network,
               std::uint32_t ticksPerCycle, std::uint64_t seed);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Null when the conditions plan no partition.
  const PartitionSchedule* partitions() const noexcept {
    return partitions_ ? &*partitions_ : nullptr;
  }

  // -- the scheduling-time queries (LatencyTransport::send) -------------

  /// Resolves one message from `src` to `dst` scheduled at `tick`, in
  /// this order: the partition veto, the startCycle gate, Bernoulli loss,
  /// burst loss, duplication and reordering. Each condition draws only
  /// when it is configured and the message is still alive. copies == 0
  /// means the message is dropped (counters say why).
  LinkFate resolve(NodeId src, NodeId dst, std::uint64_t tick);

  /// The base latency draw for this link: cluster intra/inter when
  /// cluster latency is configured, otherwise `fallback` (the
  /// scenario's global LatencyModel). Draws from `rng` — the
  /// transport's stream, so configuring a model does not disturb the
  /// draw sequence of latency itself.
  std::uint64_t latencyTicks(NodeId src, NodeId dst,
                             const LatencyModel& fallback, Rng& rng);

  /// FIFO egress queueing delay for a message `src` sends at `tick`
  /// (0 unless a bandwidth cap is configured and the sender is backed
  /// up). Consumes one slot of the sender's per-tick budget — the
  /// transport calls this for every *attempted* send, including ones
  /// the link then loses: transmission precedes loss.
  std::uint64_t egressDelay(NodeId src, std::uint64_t tick);

  /// The cluster a node hashes into (0 when clusters are disabled).
  std::uint32_t clusterOf(NodeId node) const noexcept;

  // -- accounting --------------------------------------------------------

  std::uint64_t droppedByLoss() const noexcept { return droppedByLoss_; }
  std::uint64_t droppedByPartition() const noexcept {
    return droppedByPartition_;
  }
  std::uint64_t duplicated() const noexcept { return duplicated_; }
  std::uint64_t reordered() const noexcept { return reordered_; }
  /// Sends that experienced a non-zero egress queueing delay, and the
  /// total / maximum delay in ticks.
  std::uint64_t queuedSends() const noexcept { return queuedSends_; }
  std::uint64_t queuedDelayTotal() const noexcept {
    return queuedDelayTotal_;
  }
  std::uint64_t maxQueueDelay() const noexcept { return maxQueueDelay_; }

 private:
  /// Advances the (src, dst) burst chain by one crossing and draws
  /// whether the crossing is lost.
  bool burstDrops(NodeId src, NodeId dst);

  NetworkConditions conditions_;
  Rng rng_;
  std::optional<PartitionSchedule> partitions_;
  /// Tick before which loss, duplication, reordering and the bandwidth
  /// cap stay disengaged (NetworkConditions::startCycle × ticksPerCycle).
  std::uint64_t activeFromTick_ = 0;
  /// Directed link (src<<32|dst) → in-Bad-state flag of its burst chain.
  std::unordered_map<std::uint64_t, std::uint8_t> burstBad_;
  /// Per-sender next free egress slot, in absolute message slots (tick t
  /// owns slots [t*B, (t+1)*B)); max(current tick's first slot, the
  /// slot after the last departure) is where the next message departs.
  std::vector<std::uint64_t> nextEgressSlot_;
  std::uint64_t droppedByLoss_ = 0;
  std::uint64_t droppedByPartition_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t queuedSends_ = 0;
  std::uint64_t queuedDelayTotal_ = 0;
  std::uint64_t maxQueueDelay_ = 0;
};

}  // namespace vs07::sim
