// Bit-identical regression pin for the search hit-rate curve.
//
// Recomputes a reduced-scale version of the bench/search_workload sweep
// — warm scenario, TTL axis per strategy, series shaping through
// analysis::searchSweepSeries — and compares the dumped JSON
// byte-for-byte against a golden file. Any change that disturbs rng
// consumption in placement, origin/item draws, or forwarding shows up
// here as a byte diff.
//
// Regenerating (only when a change is *supposed* to alter results):
//   VS07_REGEN_GOLDEN=1 ./search_hitrate_regression_test
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/report_json.hpp"
#include "analysis/scenario.hpp"
#include "common/json.hpp"
#include "harness/golden.hpp"
#include "search/query.hpp"

namespace vs07::search {
namespace {

TEST(SearchRegression, HitRateCurveBitIdentical) {
  // Reduced-scale mirror of bench/search_workload --quick: one warm
  // static scenario, hit-rate-vs-TTL per strategy at replication 8.
  const auto scenario = analysis::Scenario::builder()
                            .nodes(400)
                            .seed(42)
                            .warmupCycles(50)
                            .build();
  const std::vector<std::uint32_t> ttlAxis = {2, 4, 6, 8};
  Json series = Json::array();
  for (const SearchStrategy strategy :
       {SearchStrategy::kTtlGossip, SearchStrategy::kFlood,
        SearchStrategy::kRandomWalk}) {
    std::vector<SearchReport> sweep;
    for (const std::uint32_t ttl : ttlAxis) {
      QueryOptions options = QueryOptions::ttlGossip(ttl, 2);
      options.strategy = strategy;
      if (strategy != SearchStrategy::kTtlGossip) options.cacheCapacity = 0;
      auto session = scenario.querySession(options);
      sweep.push_back(session.run(256));
    }
    series.push(analysis::searchSweepSeries(searchStrategyName(strategy),
                                            sweep.front(), sweep));
  }
  harness::checkAgainstGolden("search_hitrate.golden.json", series.dump(2));
}

}  // namespace
}  // namespace vs07::search
