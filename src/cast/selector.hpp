// Gossip-target selection — the one function that distinguishes the
// dissemination algorithms of the paper:
//
//   Fig. 1(b)  flooding:  every link except the sender        (deterministic)
//   Fig. 2     RANDCAST:  F random r-links except the sender  (probabilistic)
//   Fig. 5     RINGCAST:  both ring d-links except the sender,
//              topped up to F with random r-links             (hybrid)
//
// The hybrid rule is the general one of §5 — forward across *all*
// outgoing d-links plus random r-links — so the same code drives RINGCAST
// (two d-links) and multi-ring RINGCAST (2k d-links).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cast/snapshot.hpp"
#include "common/rng.hpp"
#include "net/node_id.hpp"

namespace vs07::cast {

// -- span-based primitives ---------------------------------------------
//
// The selectors below work on frozen snapshots; live dissemination
// (cast/live.hpp) picks targets from a node's *current* views. Both share
// these primitives, so Fig. 2 / Fig. 5 semantics exist in exactly one
// place.
//
// Output convention: a rule writes its targets to the front of `out` and
// returns how many it wrote. `out` must have room for every link the rule
// is given (rlinks.size() + dlinks.size()); the slots past the returned
// count are scratch. Callers keep one buffer across nodes, so selection
// never allocates.

/// The random top-up behind RANDCAST, RINGCAST and multi-ring RINGCAST.
/// out[0, chosen) holds targets already chosen; appends up to `want`
/// random picks from `pool`, never `exclude`, `self` or a chosen target,
/// and returns the new count. `out` needs room for chosen + pool.size()
/// and must not overlap `pool`.
///
/// Draw contract: the eligible r-links are the pool entries that survive
/// those exclusions, in view order (duplicates stay separate entries).
/// A partial Fisher–Yates over them draws exactly rng.below(n - i) for
/// each pick i < min(want, n), n = eligible count, and the picks land in
/// draw order — every eligible subset is equally likely.
std::size_t appendRandomTargets(std::span<const NodeId> pool, NodeId self,
                                NodeId exclude, std::size_t want, Rng& rng,
                                std::span<NodeId> out, std::size_t chosen);

/// The RANDCAST rule (Fig. 2) over explicit link sets.
std::size_t randomTargets(std::span<const NodeId> rlinks, NodeId self,
                          NodeId receivedFrom, std::uint32_t fanout, Rng& rng,
                          std::span<NodeId> out);

/// The hybrid rule (§5 / Fig. 5) over explicit link sets: all d-links
/// except the sender, topped up to `fanout` with random r-links.
std::size_t hybridTargets(std::span<const NodeId> rlinks,
                          std::span<const NodeId> dlinks, NodeId self,
                          NodeId receivedFrom, std::uint32_t fanout, Rng& rng,
                          std::span<NodeId> out);

/// The flood rule (§3) over explicit link sets: every d-link, then every
/// r-link, deduplicated and never back to the sender (no fanout cap).
std::size_t floodTargets(std::span<const NodeId> rlinks,
                         std::span<const NodeId> dlinks, NodeId self,
                         NodeId receivedFrom, std::span<NodeId> out);

// -- selectors over frozen snapshots -------------------------------------

/// Chooses where `self` forwards a freshly received message on a frozen
/// overlay. A selector is one of the three rules above plus a display
/// name; the frozen-overlay engine dispatches on rule() once per
/// dissemination, not once per forwarding node.
class TargetSelector {
 public:
  enum class Rule : std::uint8_t { kFlood, kRandom, kHybrid };

  Rule rule() const noexcept { return rule_; }

  /// Display name for reports and tables.
  std::string_view name() const noexcept { return name_; }

  /// Fills `out` (cleared first) with distinct targets; never includes
  /// `receivedFrom` or `self`. May exceed `fanout` only when the
  /// algorithm's deterministic links alone do (RINGCAST with F < 2,
  /// exactly as the paper's Fig. 5 pseudocode behaves). `receivedFrom`
  /// is kNoNode when `self` is the origin.
  void selectTargets(const OverlaySnapshot& overlay, NodeId self,
                     NodeId receivedFrom, std::uint32_t fanout, Rng& rng,
                     std::vector<NodeId>& out) const;

 protected:
  constexpr TargetSelector(Rule rule, std::string_view name) noexcept
      : rule_(rule), name_(name) {}

 private:
  Rule rule_;
  std::string_view name_;
};

/// Deterministic flooding (Fig. 1): forward across every outgoing link
/// (d-links and r-links) except back to the sender. Fanout is ignored.
class FloodSelector final : public TargetSelector {
 public:
  constexpr FloodSelector() noexcept : TargetSelector(Rule::kFlood, "Flood") {}
};

/// RANDCAST (Fig. 2): up to F distinct random r-links, never the sender.
class RandCastSelector final : public TargetSelector {
 public:
  constexpr RandCastSelector() noexcept
      : TargetSelector(Rule::kRandom, "RandCast") {}
};

/// Hybrid rule of §5 / Fig. 5: all d-links except the sender, then
/// max(0, F - |targets|) distinct random r-links (excluding sender,
/// self and already-chosen targets). With single-ring d-links this *is*
/// RINGCAST.
class HybridSelector : public TargetSelector {
 public:
  constexpr HybridSelector() noexcept : HybridSelector("Hybrid") {}

 protected:
  constexpr explicit HybridSelector(std::string_view name) noexcept
      : TargetSelector(Rule::kHybrid, name) {}
};

/// RINGCAST — the paper's protocol: HybridSelector over a snapshot whose
/// d-links are the bidirectional ring neighbours.
class RingCastSelector final : public HybridSelector {
 public:
  constexpr RingCastSelector() noexcept : HybridSelector("RingCast") {}
};

/// Multi-ring RINGCAST (§8 extension): HybridSelector over a snapshot
/// whose d-links union several rings.
class MultiRingCastSelector final : public HybridSelector {
 public:
  constexpr MultiRingCastSelector() noexcept
      : HybridSelector("MultiRingCast") {}
};

}  // namespace vs07::cast
