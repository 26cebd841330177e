#include "analysis/experiment.hpp"

namespace vs07::analysis {

CountHistogram lifetimeHistogram(const sim::Network& network,
                                 std::uint64_t nowCycle) {
  CountHistogram histogram;
  for (const NodeId id : network.aliveIds())
    histogram.add(network.lifetime(id, nowCycle));
  return histogram;
}

}  // namespace vs07::analysis
