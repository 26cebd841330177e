// ParallelSweep — the cell-based experiment runner behind the figure
// benches, the examples and the integration tests; its result records
// live in analysis/experiment.hpp.
//
// Each runner has three shapes, most convenient first:
//   * (Scenario, Strategy, ...)       — snapshots the right overlay itself;
//   * (OverlaySnapshot, Strategy, ...) — for hand-built overlays (§3 graphs);
//   * (OverlaySnapshot, TargetSelector, ...) — the raw engine underneath.
//
// A sweep is split into independent (fanout, replication-chunk) cells of
// at most SweepOptions::runsPerCell disseminations each. Every cell seeds
// its own RNG from deriveStreamSeed(seed, fanout, chunk) — a splitmix
// -style derivation of the root seed and the cell's *identity*, never its
// schedule — and accumulates partial sums locally. After all cells finish
// the partials are merged in canonical (fanout, chunk) order. Two
// consequences the determinism tests pin down:
//
//   * results are bit-identical for any thread count, including 1: the
//     cell decomposition, every cell's RNG stream, and the merge order
//     are all independent of how cells are scheduled onto threads;
//   * a point's value is independent of the rest of the sweep:
//     sweepEffectiveness(..., {2, 4, 6}, ...)[1] equals the standalone
//     measureEffectiveness(..., 4, ...) at the same seed, because cell
//     seeds depend on the fanout value, not its position.
//
// Note the canonical result differs numerically from the pre-parallel
// sequential runner (one RNG walked through all runs); it is the cell
// decomposition that is canonical now, at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/experiment.hpp"
#include "common/task_pool.hpp"

namespace vs07::analysis {

class Scenario;

/// Knobs of the parallel runner.
struct SweepOptions {
  /// Worker lanes (including the caller); 0 = all hardware cores.
  std::uint32_t threads = 1;
  /// Replication-chunk size: runs per cell. Part of the canonical cell
  /// decomposition — changing it changes the (deterministic) results,
  /// so it defaults to a fixed constant rather than anything derived
  /// from the machine.
  std::uint32_t runsPerCell = 8;
};

/// The experiment runner (see file comment). One instance owns a
/// TaskPool and can run any number of sweeps; it is not thread-safe
/// itself (one sweep at a time). The default instance runs on the
/// calling thread alone.
class ParallelSweep {
 public:
  ParallelSweep() : ParallelSweep(SweepOptions{}) {}
  explicit ParallelSweep(SweepOptions options);
  ~ParallelSweep();

  ParallelSweep(const ParallelSweep&) = delete;
  ParallelSweep& operator=(const ParallelSweep&) = delete;

  std::uint32_t threadCount() const noexcept;

  // -- effectiveness (Figs. 6/8/9/11) -----------------------------------

  /// Runs `runs` disseminations from uniformly random alive origins and
  /// aggregates them. Deterministic in `seed`.
  EffectivenessPoint measureEffectiveness(const cast::OverlaySnapshot& overlay,
                                          const cast::TargetSelector& selector,
                                          std::uint32_t fanout,
                                          std::uint32_t runs,
                                          std::uint64_t seed);
  EffectivenessPoint measureEffectiveness(const cast::OverlaySnapshot& overlay,
                                          cast::Strategy strategy,
                                          std::uint32_t fanout,
                                          std::uint32_t runs,
                                          std::uint64_t seed);
  EffectivenessPoint measureEffectiveness(const Scenario& scenario,
                                          cast::Strategy strategy,
                                          std::uint32_t fanout,
                                          std::uint32_t runs,
                                          std::uint64_t seed);

  /// All fanouts' cells are flattened into one parallel loop, so load
  /// balances across the whole sweep, not per point.
  std::vector<EffectivenessPoint> sweepEffectiveness(
      const cast::OverlaySnapshot& overlay,
      const cast::TargetSelector& selector,
      const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
      std::uint64_t seed);
  std::vector<EffectivenessPoint> sweepEffectiveness(
      const cast::OverlaySnapshot& overlay, cast::Strategy strategy,
      const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
      std::uint64_t seed);
  std::vector<EffectivenessPoint> sweepEffectiveness(
      const Scenario& scenario, cast::Strategy strategy,
      const std::vector<std::uint32_t>& fanouts, std::uint32_t runs,
      std::uint64_t seed);

  // -- per-hop progress (Figs. 7/10) ------------------------------------

  ProgressStats measureProgress(const cast::OverlaySnapshot& overlay,
                                const cast::TargetSelector& selector,
                                std::uint32_t fanout, std::uint32_t runs,
                                std::uint64_t seed);
  ProgressStats measureProgress(const cast::OverlaySnapshot& overlay,
                                cast::Strategy strategy, std::uint32_t fanout,
                                std::uint32_t runs, std::uint64_t seed);
  ProgressStats measureProgress(const Scenario& scenario,
                                cast::Strategy strategy, std::uint32_t fanout,
                                std::uint32_t runs, std::uint64_t seed);

  // -- miss lifetimes (Fig. 13) -----------------------------------------

  /// Lifetimes are taken at `nowCycle`; the Scenario shape uses the
  /// scenario's cyclesRun(), the clock of whichever engine is active.
  MissLifetimeStudy measureMissLifetimes(const cast::OverlaySnapshot& overlay,
                                         const cast::TargetSelector& selector,
                                         const sim::Network& network,
                                         std::uint64_t nowCycle,
                                         std::uint32_t fanout,
                                         std::uint32_t runs,
                                         std::uint64_t seed);
  MissLifetimeStudy measureMissLifetimes(const cast::OverlaySnapshot& overlay,
                                         cast::Strategy strategy,
                                         const sim::Network& network,
                                         std::uint64_t nowCycle,
                                         std::uint32_t fanout,
                                         std::uint32_t runs,
                                         std::uint64_t seed);
  MissLifetimeStudy measureMissLifetimes(const Scenario& scenario,
                                         cast::Strategy strategy,
                                         std::uint32_t fanout,
                                         std::uint32_t runs,
                                         std::uint64_t seed);

  /// The pool, for callers with their own embarrassingly-parallel loops
  /// (e.g. fig12's independent churn experiments).
  TaskPool& pool() noexcept;

 private:
  SweepOptions options_;
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace vs07::analysis
