// Determinism regression suite for analysis::ParallelSweep: for every
// cast::Strategy, 1, 2, and 8 threads must produce *bit-identical*
// EffectivenessPoint / ProgressStats / MissLifetimeStudy results, two
// runs at the same seed must agree, and a point's value must not depend
// on what else is in the sweep (cell streams are identity-derived, not
// schedule-derived). The Scenario shapes must read the clock of the
// engine that actually ran.
#include "analysis/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "analysis/scenario.hpp"
#include "cast/strategy.hpp"

namespace vs07::analysis {
namespace {

using cast::Strategy;

constexpr Strategy kAllStrategies[] = {
    Strategy::kFlood, Strategy::kRandCast, Strategy::kRingCast,
    Strategy::kMultiRing, Strategy::kPushPull};

constexpr std::uint32_t kRuns = 40;
constexpr std::uint64_t kSeed = 99;

/// Bit-level equality: stricter than ==, catches -0.0 vs 0.0 and would
/// catch any reassociated summation.
void expectBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expectIdentical(const EffectivenessPoint& a,
                     const EffectivenessPoint& b) {
  EXPECT_EQ(a.fanout, b.fanout);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.totalMisses, b.totalMisses);
  expectBits(a.avgMissPercent, b.avgMissPercent, "avgMissPercent");
  expectBits(a.completePercent, b.completePercent, "completePercent");
  expectBits(a.avgMessagesTotal, b.avgMessagesTotal, "avgMessagesTotal");
  expectBits(a.avgVirgin, b.avgVirgin, "avgVirgin");
  expectBits(a.avgRedundant, b.avgRedundant, "avgRedundant");
  expectBits(a.avgToDead, b.avgToDead, "avgToDead");
  expectBits(a.avgLastHop, b.avgLastHop, "avgLastHop");
}

void expectIdentical(const ProgressStats& a, const ProgressStats& b) {
  EXPECT_EQ(a.fanout, b.fanout);
  EXPECT_EQ(a.runs, b.runs);
  ASSERT_EQ(a.meanPctRemaining.size(), b.meanPctRemaining.size());
  for (std::size_t hop = 0; hop < a.meanPctRemaining.size(); ++hop) {
    expectBits(a.meanPctRemaining[hop], b.meanPctRemaining[hop], "mean");
    expectBits(a.minPctRemaining[hop], b.minPctRemaining[hop], "min");
    expectBits(a.maxPctRemaining[hop], b.maxPctRemaining[hop], "max");
  }
}

void expectIdentical(const MissLifetimeStudy& a, const MissLifetimeStudy& b) {
  expectIdentical(a.effectiveness, b.effectiveness);
  EXPECT_EQ(a.missedLifetimes.sorted(), b.missedLifetimes.sorted());
}

/// One small warmed scenario shared by all cases (building it dominates
/// the suite's runtime). Killing a slice of the population makes misses
/// actually occur, so the lifetime histograms are non-trivial.
Scenario& scenario() {
  static Scenario shared = [] {
    auto s = Scenario::builder().nodes(256).seed(7).rings(2).build();
    s.killRandomFraction(0.10);
    return s;
  }();
  return shared;
}

TEST(ParallelSweepDeterminism, EffectivenessBitIdenticalAcrossThreadCounts) {
  for (const Strategy strategy : kAllStrategies) {
    const auto overlay = scenario().snapshot(strategy);
    ParallelSweep baseline({.threads = 1});
    const auto expected = baseline.sweepEffectiveness(
        overlay, strategy, {1, 3, 5}, kRuns, kSeed);
    for (const std::uint32_t threads : {2u, 8u}) {
      ParallelSweep sweep({.threads = threads});
      const auto actual =
          sweep.sweepEffectiveness(overlay, strategy, {1, 3, 5}, kRuns, kSeed);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(expected[i], actual[i]);
    }
  }
}

TEST(ParallelSweepDeterminism, ProgressBitIdenticalAcrossThreadCounts) {
  for (const Strategy strategy : kAllStrategies) {
    const auto overlay = scenario().snapshot(strategy);
    ParallelSweep baseline({.threads = 1});
    const auto expected =
        baseline.measureProgress(overlay, strategy, 3, kRuns, kSeed);
    for (const std::uint32_t threads : {2u, 8u}) {
      ParallelSweep sweep({.threads = threads});
      expectIdentical(expected, sweep.measureProgress(overlay, strategy, 3,
                                                      kRuns, kSeed));
    }
  }
}

TEST(ParallelSweepDeterminism, MissLifetimesBitIdenticalAcrossThreadCounts) {
  for (const Strategy strategy : kAllStrategies) {
    const auto overlay = scenario().snapshot(strategy);
    const auto& network = scenario().network();
    const auto now = scenario().engine().cycle();
    ParallelSweep baseline({.threads = 1});
    const auto expected = baseline.measureMissLifetimes(
        overlay, strategy, network, now, 2, kRuns, kSeed);
    for (const std::uint32_t threads : {2u, 8u}) {
      ParallelSweep sweep({.threads = threads});
      expectIdentical(expected,
                      sweep.measureMissLifetimes(overlay, strategy, network,
                                                 now, 2, kRuns, kSeed));
    }
  }
}

TEST(ParallelSweepDeterminism, RepeatedRunsAgreeAtSameSeed) {
  const auto overlay = scenario().snapshot(Strategy::kRingCast);
  ParallelSweep sweep({.threads = 4});
  const auto first = sweep.sweepEffectiveness(
      overlay, Strategy::kRingCast, {2, 4}, kRuns, kSeed);
  const auto second = sweep.sweepEffectiveness(
      overlay, Strategy::kRingCast, {2, 4}, kRuns, kSeed);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    expectIdentical(first[i], second[i]);
}

TEST(ParallelSweepDeterminism, PointIndependentOfRestOfSweep) {
  // Cell streams derive from (seed, fanout, chunk) — the *identity* of
  // the cell — so the fanout-4 point is the same whether it is measured
  // alone, first, last, or among other fanouts.
  const auto overlay = scenario().snapshot(Strategy::kRandCast);
  ParallelSweep sweep({.threads = 3});
  const auto alone = sweep.measureEffectiveness(overlay, Strategy::kRandCast,
                                                4, kRuns, kSeed);
  const auto inSweep = sweep.sweepEffectiveness(
      overlay, Strategy::kRandCast, {2, 4, 6}, kRuns, kSeed);
  const auto reversed = sweep.sweepEffectiveness(
      overlay, Strategy::kRandCast, {6, 4}, kRuns, kSeed);
  expectIdentical(alone, inSweep[1]);
  expectIdentical(alone, reversed[1]);
}

TEST(ParallelSweep, ScenarioMissLifetimesUseTheActiveEngineClock) {
  // On the sharded engine the sequential engine never runs, so its cycle
  // counter stays at 0; the Scenario shape must date lifetimes by the
  // cycles the sharded engine actually ran.
  auto churned = Scenario::builder()
                     .nodes(400)
                     .seed(13)
                     .engineThreads(2)
                     .churn(0.02)
                     .build();
  churned.runCycles(70);
  ParallelSweep sweep;
  const auto viaScenario = sweep.measureMissLifetimes(
      churned, Strategy::kRandCast, 2, kRuns, kSeed);
  const auto viaSnapshot = sweep.measureMissLifetimes(
      churned.snapshot(Strategy::kRandCast), Strategy::kRandCast,
      churned.network(), churned.cyclesRun(), 2, kRuns, kSeed);
  expectIdentical(viaScenario, viaSnapshot);
  ASSERT_FALSE(viaScenario.missedLifetimes.empty());
  EXPECT_GT(viaScenario.missedLifetimes.maxValue(), 0u);
}

}  // namespace
}  // namespace vs07::analysis
