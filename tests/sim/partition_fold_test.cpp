// Regression for the fold-in of sim/failures' §5.1 partitioned-ring
// helper into sim/network_model's PartitionSchedule: the old scenario —
// kill a contiguous ring arc, then measure RINGCAST coverage over the
// survivors — must reproduce *bit-identical* coverage series when the
// arc comes through the new PartitionSchedule API instead of the legacy
// killContiguousArc call. Both paths share one arc-selection primitive
// (contiguousRingArc: same ring order, same single rng draw), so any
// divergence here means the fold-in changed §5.1 semantics.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/parallel_sweep.hpp"
#include "analysis/scenario.hpp"
#include "sim/failures.hpp"
#include "sim/network_model.hpp"

namespace vs07 {
namespace {

constexpr std::uint32_t kNodes = 500;
constexpr std::uint32_t kWarmup = 40;
constexpr double kArcFraction = 0.2;
constexpr std::uint64_t kSeed = 20260726;

analysis::Scenario buildBase() {
  return analysis::Scenario::builder()
      .nodes(kNodes)
      .seed(kSeed)
      .warmupCycles(kWarmup)
      .build();
}

TEST(PartitionFold, ArcKillCoverageSeriesBitIdenticalThroughNewApi) {
  // Legacy path: the free-standing §5.1 helper mutates the network.
  analysis::Scenario legacy = buildBase();
  Rng legacyRng(99);
  const std::vector<NodeId> killed =
      sim::killContiguousArc(legacy.network(), kArcFraction, legacyRng);
  ASSERT_FALSE(killed.empty());

  // New path: PartitionSchedule::splitRingArc names the same arc (same
  // rng draw); applying it as a permanent outage — killing the isolated
  // group *in arc order* — is the §5.1 scenario expressed through the
  // partition API.
  analysis::Scenario folded = buildBase();
  Rng foldedRng(99);
  const std::vector<NodeId> arc =
      sim::contiguousRingArc(folded.network(), kArcFraction, foldedRng);
  sim::PartitionSchedule schedule;
  {
    Rng scheduleRng(99);
    schedule = sim::PartitionSchedule::splitRingArc(folded.network(),
                                                    kArcFraction,
                                                    scheduleRng);
  }
  ASSERT_EQ(arc.size(), killed.size());
  for (std::size_t i = 0; i < arc.size(); ++i) {
    EXPECT_EQ(arc[i], killed[i]) << "arc position " << i;
    EXPECT_EQ(schedule.groupOf(arc[i]), 1u);
  }
  EXPECT_EQ(schedule.members(1).size(), arc.size());
  for (const NodeId victim : arc) folded.network().kill(victim);

  // Identical kill order ⇒ identical alive bookkeeping ⇒ the coverage
  // series of every strategy must match to the last bit.
  for (const cast::Strategy strategy :
       {cast::Strategy::kRingCast, cast::Strategy::kRandCast}) {
    analysis::ParallelSweep sweep;
    const auto legacyProgress = sweep.measureProgress(
        legacy, strategy, /*fanout=*/3, /*runs=*/16, kSeed + 5);
    const auto foldedProgress = sweep.measureProgress(
        folded, strategy, /*fanout=*/3, /*runs=*/16, kSeed + 5);
    ASSERT_EQ(legacyProgress.meanPctRemaining.size(),
              foldedProgress.meanPctRemaining.size());
    for (std::size_t hop = 0; hop < legacyProgress.meanPctRemaining.size();
         ++hop) {
      EXPECT_EQ(legacyProgress.meanPctRemaining[hop],
                foldedProgress.meanPctRemaining[hop]);
      EXPECT_EQ(legacyProgress.minPctRemaining[hop],
                foldedProgress.minPctRemaining[hop]);
      EXPECT_EQ(legacyProgress.maxPctRemaining[hop],
                foldedProgress.maxPctRemaining[hop]);
    }

    const auto legacyPoint = sweep.measureEffectiveness(
        legacy, strategy, /*fanout=*/3, /*runs=*/16, kSeed + 9);
    const auto foldedPoint = sweep.measureEffectiveness(
        folded, strategy, /*fanout=*/3, /*runs=*/16, kSeed + 9);
    EXPECT_EQ(legacyPoint.avgMissPercent, foldedPoint.avgMissPercent);
    EXPECT_EQ(legacyPoint.completePercent, foldedPoint.completePercent);
    EXPECT_EQ(legacyPoint.avgMessagesTotal, foldedPoint.avgMessagesTotal);
    EXPECT_EQ(legacyPoint.totalMisses, foldedPoint.totalMisses);
  }

  // And the Scenario-level wrapper (which owns its own kill rng) stays
  // on the shared primitive too: its kill set is one contiguous ring run.
  analysis::Scenario wrapper = buildBase();
  const auto wrapperKilled = wrapper.killContiguousArc(kArcFraction);
  EXPECT_EQ(wrapperKilled.size(), killed.size());
}

}  // namespace
}  // namespace vs07
