// Result records of the experiment runners shared by the figure benches
// and the integration tests: fanout sweeps of dissemination effectiveness
// (Figs. 6/9/11), per-hop progress aggregation (Figs. 7/10),
// message-overhead accounting (Fig. 8), and lifetime bookkeeping for the
// churn study (Figs. 12/13). The runners themselves are the methods of
// analysis::ParallelSweep (analysis/parallel_sweep.hpp); run one with
// threads = 1 for a sequential sweep — the results are bit-identical at
// any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "cast/disseminator.hpp"
#include "cast/selector.hpp"
#include "cast/snapshot.hpp"
#include "cast/strategy.hpp"
#include "common/histogram.hpp"
#include "sim/network.hpp"

namespace vs07::analysis {

/// Aggregate outcome of `runs` disseminations at one fanout.
struct EffectivenessPoint {
  std::uint32_t fanout = 0;
  std::uint32_t runs = 0;
  /// Mean miss ratio (percent) — Fig. 6(a)/9-left/11-left bars.
  double avgMissPercent = 0.0;
  /// Percentage of runs reaching every alive node — Fig. 6(b)/9-right/
  /// 11-right bars.
  double completePercent = 0.0;
  /// Mean message-overhead split (Fig. 8 stacks).
  double avgMessagesTotal = 0.0;
  double avgVirgin = 0.0;
  double avgRedundant = 0.0;
  double avgToDead = 0.0;
  /// Mean hop at which the last notified node was reached.
  double avgLastHop = 0.0;
  /// All misses summed over runs (numerator for lifetime studies).
  std::uint64_t totalMisses = 0;
};

/// Per-hop dissemination progress aggregated over runs (Figs. 7/10):
/// for each hop, the mean/min/max percentage of nodes not yet reached.
struct ProgressStats {
  std::uint32_t fanout = 0;
  std::uint32_t runs = 0;
  std::vector<double> meanPctRemaining;  ///< index = hop
  std::vector<double> minPctRemaining;
  std::vector<double> maxPctRemaining;
};

/// Lifetime (in cycles) of every alive node at `nowCycle` — Fig. 12.
CountHistogram lifetimeHistogram(const sim::Network& network,
                                 std::uint64_t nowCycle);

/// Outcome of `runs` disseminations with the lifetimes of the nodes that
/// were *not* notified histogrammed — Fig. 13. Also carries the
/// effectiveness aggregate so callers get Fig. 11's numbers from the
/// same runs.
struct MissLifetimeStudy {
  EffectivenessPoint effectiveness;
  CountHistogram missedLifetimes;
};

}  // namespace vs07::analysis
