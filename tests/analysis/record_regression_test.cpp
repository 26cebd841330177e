// Bit-identical regression pins for the bench JSON series.
//
// These tests recompute reduced-scale versions of the fig06 (static
// effectiveness) and fig11 (churn effectiveness) quick records — the same
// code path the benches drive: Scenario warm-up through the gossip hot
// path, ParallelSweep over the frozen overlays, series shaping through
// analysis/report_json — and compare the dumped JSON byte-for-byte
// against golden files captured before the message-hot-path refactor.
// Any change that disturbs rng consumption, event ordering, or the
// shuffle/merge semantics shows up here as a byte diff.
//
// Regenerating (only when a change is *supposed* to alter results):
//   VS07_REGEN_GOLDEN=1 ./analysis_record_regression_test
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/parallel_sweep.hpp"
#include "analysis/report_json.hpp"
#include "analysis/scenario.hpp"
#include "cast/strategy.hpp"
#include "common/json.hpp"
#include "harness/golden.hpp"

namespace vs07::analysis {
namespace {

using cast::Strategy;

std::vector<std::uint32_t> fanoutAxis(std::uint32_t maxFanout) {
  std::vector<std::uint32_t> fanouts;
  for (std::uint32_t f = 1; f <= maxFanout; ++f) fanouts.push_back(f);
  return fanouts;
}

std::string effectivenessRecordBytes(const Scenario& scenario,
                                     std::uint32_t maxFanout,
                                     std::uint32_t runs,
                                     std::uint64_t seed) {
  ParallelSweep sweep({.threads = 2});
  const auto fanouts = fanoutAxis(maxFanout);
  const auto rand = sweep.sweepEffectiveness(scenario, Strategy::kRandCast,
                                             fanouts, runs, seed + 1);
  const auto ring = sweep.sweepEffectiveness(scenario, Strategy::kRingCast,
                                             fanouts, runs, seed + 2);
  Json series = Json::array();
  series.push(effectivenessSeries("randcast", rand));
  series.push(effectivenessSeries("ringcast", ring));
  return series.dump(2);
}

TEST(RecordRegression, StaticEffectivenessSeriesBitIdentical) {
  // Reduced-scale fig06: static warmed-up network, fanout sweep over
  // RANDCAST and RINGCAST.
  const auto scenario = Scenario::builder().nodes(1'200).seed(42).build();
  harness::checkAgainstGolden(
      "fig06_static_series.golden.json",
      effectivenessRecordBytes(scenario, /*maxFanout=*/12, /*runs=*/10,
                               /*seed=*/42));
}

TEST(RecordRegression, ChurnEffectivenessSeriesBitIdentical) {
  // Reduced-scale fig11: churn until the initial population is fully
  // replaced, then the same sweep. Exercises join/kill handling, the
  // vicinity ban/timeout machinery, and dead-link traffic.
  const auto scenario =
      Scenario::paperChurn(/*rate=*/0.005, /*nodes=*/400, /*seed=*/42,
                           /*maxChurnCycles=*/20'000);
  EXPECT_EQ(scenario.network().initialSurvivors(), 0u);
  harness::checkAgainstGolden(
      "fig11_churn_series.golden.json",
      effectivenessRecordBytes(scenario, /*maxFanout=*/8, /*runs=*/10,
                               /*seed=*/42));
}

}  // namespace
}  // namespace vs07::analysis
