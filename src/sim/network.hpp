// Simulated node population.
//
// Network owns membership: which node ids exist, which are alive, when
// each joined, and each node's ring SequenceId. Node ids are never reused —
// a churned-out node's id stays dead forever, so stale view entries keep
// pointing at a dead node exactly as in the paper's worst-case churn model
// ("removed nodes never come back, so dead links never become valid
// again"). New joiners always get a fresh id.
//
// Ordering invariant: aliveIds() is maintained by append-on-spawn and
// swap-with-last-on-kill — its order is unspecified but a pure function
// of the spawn/kill history, so identically seeded runs iterate the
// alive set identically (the determinism suites depend on this).
// Observers are notified in registration order, synchronously inside
// spawn()/kill()/setSeqId().
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "net/node_id.hpp"

namespace vs07::sim {

/// Derives the Network seed from an experiment's root seed ("nodes"
/// salt). Both analysis::Scenario and the real-socket runtime build their
/// population from this, so every process of a distributed run — and the
/// simulation it is cross-validated against — draws identical node ids
/// and ring sequence ids from the same root seed.
constexpr std::uint64_t populationSeed(std::uint64_t rootSeed) noexcept {
  return mix64(rootSeed ^ 0x6E6F646573ULL);  // "nodes"
}

/// Notified on membership changes; protocols register to size their
/// per-node state and to clear state of dead nodes.
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  /// Registration-time capacity hint: the id space already holds `count`
  /// nodes and the onSpawn replay for them follows immediately. Observers
  /// with per-node state should reserve exactly `count` slots here —
  /// growing one node at a time during the replay leaves the geometric
  /// resize overshoot (up to 2x) live in every per-node vector, which at
  /// millions of nodes wastes hundreds of bytes per node. Default: no-op.
  virtual void onReserve(NodeId count) { (void)count; }
  /// A node id came into existence (initial population or churn join).
  virtual void onSpawn(NodeId node) = 0;
  /// A node died (catastrophic failure or churn removal).
  virtual void onKill(NodeId node) = 0;
  /// A node's sequence id was overwritten (Network::setSeqId). Observers
  /// that cache a ring position derived from it refresh it here; the
  /// network already holds the new id. Default: no-op.
  virtual void onSeqIdChange(NodeId node) { (void)node; }
};

/// The simulated population. Single-threaded by design (the cycle model
/// is sequential); not thread-safe.
class Network {
 public:
  /// Creates `initialSize` alive nodes with random sequence ids drawn
  /// from `seed`. Join cycle of the initial population is 0.
  Network(std::uint32_t initialSize, std::uint64_t seed);

  // -- membership queries ---------------------------------------------

  /// Total ids ever created (dense id space is [0, totalCreated())).
  std::uint32_t totalCreated() const noexcept {
    return static_cast<std::uint32_t>(alive_.size());
  }
  std::uint32_t aliveCount() const noexcept {
    return static_cast<std::uint32_t>(aliveIds_.size());
  }
  bool isAlive(NodeId node) const {
    VS07_EXPECT(node < alive_.size());
    return alive_[node] != 0;
  }
  /// Ids of currently alive nodes, unspecified order. Invalidated by
  /// spawn/kill.
  const std::vector<NodeId>& aliveIds() const noexcept { return aliveIds_; }

  /// Uniformly random alive node. Requires a non-empty population.
  NodeId randomAlive(Rng& rng) const;

  // -- node attributes --------------------------------------------------

  /// Ring position (VICINITY profile) of a node.
  SequenceId seqId(NodeId node) const {
    VS07_EXPECT(node < seqIds_.size());
    return seqIds_[node];
  }
  /// Overrides a node's sequence id (domain-ring extension) and tells
  /// every observer through onSeqIdChange, so protocols that cache ring
  /// positions follow. Descriptors already copied into views keep the
  /// old profile until gossip replaces them: rewrite ids before warm-up
  /// for a ring that forms in the new order from the start.
  void setSeqId(NodeId node, SequenceId id);

  /// Cycle at which the node joined.
  std::uint64_t joinCycle(NodeId node) const {
    VS07_EXPECT(node < joinCycle_.size());
    return joinCycle_[node];
  }
  /// Lifetime in cycles at time `nowCycle` (paper Figs. 12-13).
  std::uint64_t lifetime(NodeId node, std::uint64_t nowCycle) const {
    const auto born = joinCycle(node);
    return nowCycle >= born ? nowCycle - born : 0;
  }

  /// Number of nodes from the *initial* population still alive. The churn
  /// warm-up of §7.3 runs until this reaches zero ("until every node had
  /// been removed ... at least once").
  std::uint32_t initialSurvivors() const noexcept { return initialSurvivors_; }

  // -- membership mutation ----------------------------------------------

  /// Creates a fresh alive node with a random sequence id; returns its id.
  NodeId spawn(std::uint64_t atCycle);

  /// Marks a node dead. Idempotent kills are a bug: requires alive.
  void kill(NodeId node);

  // -- observers ----------------------------------------------------------

  /// Registers an observer; it is immediately told about existing nodes
  /// via onSpawn so late registration is safe. Non-owning.
  void addObserver(MembershipObserver& observer);

  /// Unregisters an observer. No-op if it was never registered, so
  /// observers whose Network may be destroyed first can call this
  /// unconditionally from their destructor.
  void removeObserver(MembershipObserver& observer);

 private:
  Rng rng_;
  std::vector<std::uint8_t> alive_;
  std::vector<SequenceId> seqIds_;
  std::vector<std::uint64_t> joinCycle_;
  std::vector<NodeId> aliveIds_;
  /// Position of each alive node inside aliveIds_ (kNoNode when dead);
  /// enables O(1) removal by swap-with-last.
  std::vector<std::uint32_t> alivePos_;
  std::uint32_t initialSize_;
  std::uint32_t initialSurvivors_;
  std::vector<MembershipObserver*> observers_;
};

}  // namespace vs07::sim
