// The dissemination strategy plug-point shared by the snapshot and live
// paths. One enum names every forwarding rule the paper evaluates; both
// CastSession implementations (cast/session.hpp) and the experiment
// runners (analysis/parallel_sweep.hpp) key on it, so switching an experiment
// between RANDCAST and RINGCAST — or between frozen-overlay and
// transport-driven execution — is a one-word change.
#pragma once

#include <string_view>

namespace vs07::cast {

class TargetSelector;

/// The forwarding rules of the paper, §3-§8.
enum class Strategy {
  /// Deterministic flooding over every link (§3's static overlays; on
  /// the live path: every current d-link and r-link, no fanout cap).
  kFlood,
  /// Probabilistic push over F random r-links (Fig. 2).
  kRandCast,
  /// Hybrid push: both ring d-links + random top-up to F (Fig. 5).
  kRingCast,
  /// Hybrid push over the union of several rings' d-links (§8).
  kMultiRing,
  /// RINGCAST push plus anti-entropy pull recovery (§8 future work).
  /// Only meaningful on the live path; the snapshot path rejects it.
  kPushPull,
};

/// Display name used in reports and tables.
std::string_view strategyName(Strategy strategy) noexcept;

/// The frozen-overlay selector implementing `strategy`'s push rule.
/// Selectors are stateless; the returned reference is to a shared static
/// instance and stays valid forever. kPushPull maps to the RINGCAST
/// selector (its push component).
const TargetSelector& selectorFor(Strategy strategy);

}  // namespace vs07::cast
