// Node identity types shared by every layer.
//
// A NodeId is a dense index into the simulator's node table (cheap to copy,
// hash, and use as an array index). A node's position on the RINGCAST ring
// is *not* its NodeId but a separate random 64-bit SequenceId — the paper's
// "arbitrarily chosen sequence IDs" that VICINITY sorts by.
//
// Invariant: ids are dense and never reused — the id space is
// [0, Network::totalCreated()), a churned-out id stays dead forever, and
// every layer may therefore size per-node state as a flat array indexed
// by NodeId without tombstone handling.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

namespace vs07 {

/// Dense node index. Stable for the lifetime of a simulated node; slots
/// are reused only through explicit rebirth in the churn model, which
/// resets all per-node state.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Random identifier determining ring order (VICINITY profile).
using SequenceId = std::uint64_t;

/// Clockwise (increasing-id) distance from a to b on the 2^64 ring.
constexpr std::uint64_t clockwiseDistance(SequenceId a, SequenceId b) noexcept {
  return b - a;  // modular arithmetic does the wrap for us
}

}  // namespace vs07
