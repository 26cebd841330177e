#include "sim/session_churn.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace vs07::sim {

std::uint64_t SessionDistribution::sample(Rng& rng) const {
  VS07_EXPECT(alpha > 1.0);
  VS07_EXPECT(minCycles >= 1.0);
  // Inverse-CDF sampling of a Pareto, truncated at maxCycles.
  const double u = rng.uniform();
  const double raw = minCycles / std::pow(1.0 - u, 1.0 / alpha);
  const double bounded = std::min(raw, maxCycles);
  return static_cast<std::uint64_t>(std::llround(bounded));
}

SessionDistribution paretoForMeanLifetime(double meanCycles, double alpha) {
  VS07_EXPECT(alpha > 1.0);
  VS07_EXPECT(meanCycles > 1.0);
  SessionDistribution d;
  d.alpha = alpha;
  d.minCycles = std::max(1.0, meanCycles * (alpha - 1.0) / alpha);
  return d;
}

SessionChurnControl::SessionChurnControl(Network& network,
                                         SessionDistribution distribution,
                                         std::uint64_t seed)
    : network_(network), distribution_(distribution), rng_(seed) {}

void SessionChurnControl::addJoinHandler(JoinHandler& handler) {
  joinHandlers_.push_back(&handler);
}

void SessionChurnControl::admit(NodeId node, std::uint64_t now) {
  expiries_.push({now + distribution_.sample(rng_), node});
}

void SessionChurnControl::admitInitialPopulation(std::uint64_t now) {
  // Residual lifetimes: each pre-existing node is somewhere mid-session,
  // so it expires after a uniformly random fraction of a fresh session
  // length. (An approximation of the exact stationary residual — good
  // enough to avoid synchronised death waves; see header.)
  for (const NodeId node : network_.aliveIds()) {
    const auto full = distribution_.sample(rng_);
    const auto residual = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(full) * rng_.uniform()));
    expiries_.push({now + std::max<std::uint64_t>(1, residual), node});
  }
}

void SessionChurnControl::execute(std::uint64_t cycle) {
  if (!initialized_) {
    admitInitialPopulation(cycle);
    initialized_ = true;
  }
  while (!expiries_.empty() && expiries_.top().atCycle <= cycle) {
    const NodeId victim = expiries_.top().node;
    expiries_.pop();
    // The node may already be dead through external failure injection.
    if (!network_.isAlive(victim)) continue;
    network_.kill(victim);
    ++removed_;

    const NodeId joiner = network_.spawn(cycle);
    admit(joiner, cycle);
    NodeId introducer = joiner;
    while (introducer == joiner) introducer = network_.randomAlive(rng_);
    for (auto* handler : joinHandlers_) handler->onJoin(joiner, introducer);
  }
}

}  // namespace vs07::sim
