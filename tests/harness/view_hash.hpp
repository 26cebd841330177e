// FNV-1a hashing of gossip views for the golden suites: one hash stands
// for a node's whole view, so a diverging view shows up as a byte diff
// without dumping every entry.
//
// Header-only for the same reason as golden.hpp: every tests/**/*.cpp
// builds into its own gtest binary.
#pragma once

#include <cstdint>

#include "analysis/scenario.hpp"
#include "gossip/view.hpp"

namespace vs07::harness {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over one 64-bit word, lowest byte first.
inline std::uint64_t mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Folds every entry of `view` (node, age, the node's profile from its
/// layer's table `profileOf`) and a separator.
template <class ProfileOf>
std::uint64_t mixView(std::uint64_t hash, const gossip::View& view,
                      ProfileOf&& profileOf) {
  for (const auto& e : view.entries()) {
    hash = mix(hash, e.node);
    hash = mix(hash, e.age);
    hash = mix(hash, profileOf(e.node));
  }
  return mix(hash, ~0ULL);  // view separator
}

/// Folds node `n`'s CYCLON view (profiles from Network::seqId), then each
/// ring's VICINITY view (profiles from the ring's table).
inline std::uint64_t mixNodeViews(std::uint64_t hash,
                                  const analysis::Scenario& scenario,
                                  NodeId n) {
  const sim::Network& network = scenario.network();
  hash = mixView(hash, scenario.cyclon().view(n),
                 [&network](NodeId m) { return network.seqId(m); });
  for (std::uint32_t r = 0; r < scenario.rings().ringCount(); ++r) {
    const gossip::Vicinity& ring = scenario.rings().ring(r);
    hash = mixView(hash, ring.view(n),
                   [&ring](NodeId m) { return ring.profileOf(m); });
  }
  return hash;
}

}  // namespace vs07::harness
