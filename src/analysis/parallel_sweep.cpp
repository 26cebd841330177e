#include "analysis/parallel_sweep.hpp"

#include <algorithm>

#include "analysis/scenario.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"

namespace vs07::analysis {

namespace {

/// One dissemination from a uniformly random alive origin.
cast::DeliveryReport runOnce(const cast::OverlaySnapshot& overlay,
                             const cast::TargetSelector& selector,
                             std::uint32_t fanout, Rng& rng) {
  const NodeId origin =
      overlay.aliveIds()[rng.below(overlay.aliveIds().size())];
  cast::DisseminationParams params;
  params.fanout = fanout;
  params.seed = rng();
  return cast::disseminate(overlay, selector, origin, params);
}

/// Partial sums of one cell's runs, mergeable in canonical cell order.
/// Doubles accumulate in run order within the cell and cell order across
/// cells, so the merged totals are independent of scheduling.
struct EffectivenessPartial {
  std::uint32_t runs = 0;
  double missSum = 0.0;
  double completeRuns = 0.0;
  double totalSum = 0.0;
  double virginSum = 0.0;
  double redundantSum = 0.0;
  double toDeadSum = 0.0;
  double lastHopSum = 0.0;
  std::uint64_t totalMisses = 0;

  void add(const cast::DeliveryReport& report) {
    ++runs;
    missSum += report.missRatioPercent();
    completeRuns += report.complete() ? 1 : 0;
    totalSum += static_cast<double>(report.messagesTotal);
    virginSum += static_cast<double>(report.messagesVirgin);
    redundantSum += static_cast<double>(report.messagesRedundant);
    toDeadSum += static_cast<double>(report.messagesToDead);
    lastHopSum += static_cast<double>(report.lastHop);
    totalMisses += report.missed.size();
  }

  void merge(const EffectivenessPartial& other) {
    runs += other.runs;
    missSum += other.missSum;
    completeRuns += other.completeRuns;
    totalSum += other.totalSum;
    virginSum += other.virginSum;
    redundantSum += other.redundantSum;
    toDeadSum += other.toDeadSum;
    lastHopSum += other.lastHopSum;
    totalMisses += other.totalMisses;
  }

  EffectivenessPoint finish(std::uint32_t fanout) const {
    VS07_EXPECT(runs > 0);
    EffectivenessPoint point;
    point.fanout = fanout;
    point.runs = runs;
    point.totalMisses = totalMisses;
    const auto n = static_cast<double>(runs);
    point.avgMissPercent = missSum / n;
    point.completePercent = 100.0 * completeRuns / n;
    point.avgMessagesTotal = totalSum / n;
    point.avgVirgin = virginSum / n;
    point.avgRedundant = redundantSum / n;
    point.avgToDead = toDeadSum / n;
    point.avgLastHop = lastHopSum / n;
    return point;
  }
};

/// Per-hop partial of one cell. Arrays span the cell's own longest run;
/// beyond that every run of the cell has plateaued (a report's
/// percentNotReachedAfterHop is constant past its last hop), so reading
/// index min(hop, size-1) extends the cell to any global hop count.
struct ProgressPartial {
  std::uint32_t runs = 0;
  std::vector<double> sumPct;
  std::vector<double> minPct;
  std::vector<double> maxPct;

  void add(const cast::DeliveryReport& report) {
    ++runs;
    const std::size_t hops = report.newlyNotifiedPerHop.size();
    if (hops > sumPct.size()) {
      // Extend the arrays: every run counted so far has plateaued by the
      // old last column (a curve is constant past its final hop), so the
      // new columns start from that column's sums and extremes.
      const std::size_t oldSize = sumPct.size();
      const double lastSum = oldSize > 0 ? sumPct[oldSize - 1] : 0.0;
      const double lastMin = oldSize > 0 ? minPct[oldSize - 1] : 100.0;
      const double lastMax = oldSize > 0 ? maxPct[oldSize - 1] : 0.0;
      sumPct.resize(hops, lastSum);
      minPct.resize(hops, lastMin);
      maxPct.resize(hops, lastMax);
    }
    for (std::size_t h = 0; h < sumPct.size(); ++h) {
      const double pct =
          report.percentNotReachedAfterHop(static_cast<std::uint32_t>(h));
      sumPct[h] += pct;
      minPct[h] = std::min(minPct[h], pct);
      maxPct[h] = std::max(maxPct[h], pct);
    }
  }

  double sumAt(std::size_t hop) const {
    return sumPct[std::min(hop, sumPct.size() - 1)];
  }
  double minAt(std::size_t hop) const {
    return minPct[std::min(hop, minPct.size() - 1)];
  }
  double maxAt(std::size_t hop) const {
    return maxPct[std::min(hop, maxPct.size() - 1)];
  }
};

/// Canonical decomposition of `runs` replications into cells of at most
/// `runsPerCell` runs each.
struct CellLayout {
  std::uint32_t runsPerCell;
  std::uint32_t runs;
  std::uint32_t cells() const {
    return (runs + runsPerCell - 1) / runsPerCell;
  }
  std::uint32_t runsInCell(std::uint32_t cell) const {
    const std::uint64_t start = std::uint64_t{cell} * runsPerCell;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(runsPerCell, runs - start));
  }
};

}  // namespace

ParallelSweep::ParallelSweep(SweepOptions options) : options_(options) {
  VS07_EXPECT(options_.runsPerCell > 0);
  pool_ = std::make_unique<TaskPool>(options_.threads);
}

ParallelSweep::~ParallelSweep() = default;

std::uint32_t ParallelSweep::threadCount() const noexcept {
  return pool_->threadCount();
}

TaskPool& ParallelSweep::pool() noexcept { return *pool_; }

std::vector<EffectivenessPoint> ParallelSweep::sweepEffectiveness(
    const cast::OverlaySnapshot& overlay, const cast::TargetSelector& selector,
    const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
    std::uint64_t seed) {
  VS07_EXPECT(runs > 0);
  VS07_EXPECT(overlay.aliveCount() > 0);
  const CellLayout layout{options_.runsPerCell, runs};
  const std::uint32_t cellsPerFanout = layout.cells();
  const std::size_t totalCells =
      fanouts.size() * static_cast<std::size_t>(cellsPerFanout);

  std::vector<EffectivenessPartial> partials(totalCells);
  pool_->parallelFor(totalCells, [&](std::size_t cell) {
    const std::size_t fanoutIndex = cell / cellsPerFanout;
    const auto chunk = static_cast<std::uint32_t>(cell % cellsPerFanout);
    const std::uint32_t fanout = fanouts[fanoutIndex];
    Rng rng(deriveStreamSeed(seed, fanout, chunk));
    auto& partial = partials[cell];
    for (std::uint32_t r = 0; r < layout.runsInCell(chunk); ++r)
      partial.add(runOnce(overlay, selector, fanout, rng));
  });

  std::vector<EffectivenessPoint> points;
  points.reserve(fanouts.size());
  for (std::size_t f = 0; f < fanouts.size(); ++f) {
    EffectivenessPartial total;
    for (std::uint32_t chunk = 0; chunk < cellsPerFanout; ++chunk)
      total.merge(partials[f * cellsPerFanout + chunk]);
    points.push_back(total.finish(fanouts[f]));
  }
  return points;
}

EffectivenessPoint ParallelSweep::measureEffectiveness(
    const cast::OverlaySnapshot& overlay, const cast::TargetSelector& selector,
    std::uint32_t fanout, std::uint32_t runs, std::uint64_t seed) {
  return sweepEffectiveness(overlay, selector, {fanout}, runs, seed)
      .front();
}

EffectivenessPoint ParallelSweep::measureEffectiveness(
    const cast::OverlaySnapshot& overlay, cast::Strategy strategy,
    std::uint32_t fanout, std::uint32_t runs, std::uint64_t seed) {
  return measureEffectiveness(overlay, cast::selectorFor(strategy), fanout,
                              runs, seed);
}

EffectivenessPoint ParallelSweep::measureEffectiveness(
    const Scenario& scenario, cast::Strategy strategy, std::uint32_t fanout,
    std::uint32_t runs, std::uint64_t seed) {
  return measureEffectiveness(scenario.snapshot(strategy), strategy, fanout,
                              runs, seed);
}

std::vector<EffectivenessPoint> ParallelSweep::sweepEffectiveness(
    const cast::OverlaySnapshot& overlay, cast::Strategy strategy,
    const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
    std::uint64_t seed) {
  return sweepEffectiveness(overlay, cast::selectorFor(strategy), fanouts,
                            runs, seed);
}

std::vector<EffectivenessPoint> ParallelSweep::sweepEffectiveness(
    const Scenario& scenario, cast::Strategy strategy,
    const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
    std::uint64_t seed) {
  return sweepEffectiveness(scenario.snapshot(strategy), strategy, fanouts,
                            runs, seed);
}

ProgressStats ParallelSweep::measureProgress(
    const cast::OverlaySnapshot& overlay, const cast::TargetSelector& selector,
    std::uint32_t fanout, std::uint32_t runs, std::uint64_t seed) {
  VS07_EXPECT(runs > 0);
  VS07_EXPECT(overlay.aliveCount() > 0);
  const CellLayout layout{options_.runsPerCell, runs};
  const std::uint32_t cells = layout.cells();

  std::vector<ProgressPartial> partials(cells);
  pool_->parallelFor(cells, [&](std::size_t cell) {
    const auto chunk = static_cast<std::uint32_t>(cell);
    Rng rng(deriveStreamSeed(seed, fanout, chunk));
    auto& partial = partials[cell];
    for (std::uint32_t r = 0; r < layout.runsInCell(chunk); ++r)
      partial.add(runOnce(overlay, selector, fanout, rng));
  });

  std::size_t maxHops = 0;
  for (const auto& partial : partials)
    maxHops = std::max(maxHops, partial.sumPct.size());

  ProgressStats stats;
  stats.fanout = fanout;
  stats.runs = runs;
  stats.meanPctRemaining.assign(maxHops, 0.0);
  stats.minPctRemaining.assign(maxHops, 100.0);
  stats.maxPctRemaining.assign(maxHops, 0.0);
  for (std::size_t hop = 0; hop < maxHops; ++hop) {
    double sum = 0.0;
    for (const auto& partial : partials) {
      sum += partial.sumAt(hop);
      stats.minPctRemaining[hop] =
          std::min(stats.minPctRemaining[hop], partial.minAt(hop));
      stats.maxPctRemaining[hop] =
          std::max(stats.maxPctRemaining[hop], partial.maxAt(hop));
    }
    stats.meanPctRemaining[hop] = sum / runs;
  }
  return stats;
}

ProgressStats ParallelSweep::measureProgress(
    const cast::OverlaySnapshot& overlay, cast::Strategy strategy,
    std::uint32_t fanout, std::uint32_t runs, std::uint64_t seed) {
  return measureProgress(overlay, cast::selectorFor(strategy), fanout, runs,
                         seed);
}

ProgressStats ParallelSweep::measureProgress(const Scenario& scenario,
                                             cast::Strategy strategy,
                                             std::uint32_t fanout,
                                             std::uint32_t runs,
                                             std::uint64_t seed) {
  return measureProgress(scenario.snapshot(strategy), strategy, fanout, runs,
                         seed);
}

MissLifetimeStudy ParallelSweep::measureMissLifetimes(
    const cast::OverlaySnapshot& overlay, const cast::TargetSelector& selector,
    const sim::Network& network, std::uint64_t nowCycle, std::uint32_t fanout,
    std::uint32_t runs, std::uint64_t seed) {
  VS07_EXPECT(runs > 0);
  VS07_EXPECT(overlay.aliveCount() > 0);
  const CellLayout layout{options_.runsPerCell, runs};
  const std::uint32_t cells = layout.cells();

  struct Partial {
    EffectivenessPartial effectiveness;
    CountHistogram lifetimes;
  };
  std::vector<Partial> partials(cells);
  pool_->parallelFor(cells, [&](std::size_t cell) {
    const auto chunk = static_cast<std::uint32_t>(cell);
    Rng rng(deriveStreamSeed(seed, fanout, chunk));
    auto& partial = partials[cell];
    for (std::uint32_t r = 0; r < layout.runsInCell(chunk); ++r) {
      const auto report = runOnce(overlay, selector, fanout, rng);
      for (const NodeId missedNode : report.missed)
        partial.lifetimes.add(network.lifetime(missedNode, nowCycle));
      partial.effectiveness.add(report);
    }
  });

  EffectivenessPartial total;
  MissLifetimeStudy study;
  for (const auto& partial : partials) {
    total.merge(partial.effectiveness);
    study.missedLifetimes.merge(partial.lifetimes);
  }
  study.effectiveness = total.finish(fanout);
  return study;
}

MissLifetimeStudy ParallelSweep::measureMissLifetimes(
    const cast::OverlaySnapshot& overlay, cast::Strategy strategy,
    const sim::Network& network, std::uint64_t nowCycle, std::uint32_t fanout,
    std::uint32_t runs, std::uint64_t seed) {
  return measureMissLifetimes(overlay, cast::selectorFor(strategy), network,
                              nowCycle, fanout, runs, seed);
}

MissLifetimeStudy ParallelSweep::measureMissLifetimes(
    const Scenario& scenario, cast::Strategy strategy, std::uint32_t fanout,
    std::uint32_t runs, std::uint64_t seed) {
  return measureMissLifetimes(scenario.snapshot(strategy), strategy,
                              scenario.network(), scenario.cyclesRun(),
                              fanout, runs, seed);
}

}  // namespace vs07::analysis
