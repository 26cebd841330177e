// Session-length churn — a more realistic alternative to the paper's
// per-cycle replacement model.
//
// Invariants: deterministic in the control's seed — session draws and
// introducer picks share one private Rng, and the expiry heap pops in a
// fixed order for a fixed insertion sequence. Each expiry is immediately
// followed by its replacement join, so the population size is constant
// at every cycle boundary.
//
// The paper's artificial model (ChurnControl) removes a uniform random
// fraction each cycle: node lifetimes are geometric (memoryless). Real
// P2P session traces — including the Saroiu et al. Gnutella measurements
// the paper calibrates against — are heavy-tailed: most sessions are
// short, a few last very long. SessionChurnControl assigns every joiner a
// session length drawn from a bounded Pareto distribution and kills it on
// expiry, replacing it with a fresh joiner; the population size stays
// constant, as in §7.3.
//
// With the shape parameter alpha and minimum session length Lmin, the
// (unbounded) mean is Lmin * alpha / (alpha - 1); the helper
// paretoForMeanLifetime picks Lmin to match a target mean so both churn
// models can be compared at equal average turnover.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace vs07::sim {

/// Bounded Pareto session-length distribution (in cycles).
struct SessionDistribution {
  double alpha = 1.5;      ///< tail index; smaller = heavier tail
  double minCycles = 10;   ///< shortest possible session
  double maxCycles = 1e6;  ///< truncation bound

  /// Draws one session length.
  std::uint64_t sample(Rng& rng) const;

  /// Mean of the *unbounded* Pareto (requires alpha > 1); the truncated
  /// mean is slightly smaller.
  double mean() const noexcept {
    return minCycles * alpha / (alpha - 1.0);
  }
};

/// Distribution whose mean session length equals `meanCycles`.
SessionDistribution paretoForMeanLifetime(double meanCycles,
                                          double alpha = 1.5);

/// Churn driven by per-node session expiry. Register with
/// Engine::addControl *after* the initial population exists.
class SessionChurnControl final : public Control {
 public:
  /// The initial population is admitted lazily on the first execute():
  /// each existing node gets a *residual* lifetime — a fresh session
  /// length scaled by a uniform position within it — approximating the
  /// stationary age distribution. Without this, every initial node's
  /// session would start simultaneously and the hard Pareto minimum
  /// would synchronise recurring death waves (a perpetual sequence of
  /// catastrophic failures rather than smooth churn).
  SessionChurnControl(Network& network, SessionDistribution distribution,
                      std::uint64_t seed);

  /// Protocols that must learn about joiners register here.
  void addJoinHandler(JoinHandler& handler);

  void execute(std::uint64_t cycle) override;

  std::uint64_t totalRemoved() const noexcept { return removed_; }

 private:
  void admit(NodeId node, std::uint64_t now);
  void admitInitialPopulation(std::uint64_t now);

  Network& network_;
  SessionDistribution distribution_;
  Rng rng_;
  bool initialized_ = false;
  std::vector<JoinHandler*> joinHandlers_;
  struct Expiry {
    std::uint64_t atCycle;
    NodeId node;
    bool operator>(const Expiry& other) const noexcept {
      return atCycle > other.atCycle;
    }
  };
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries_;
  std::uint64_t removed_ = 0;
};

}  // namespace vs07::sim
