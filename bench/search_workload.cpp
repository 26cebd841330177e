// Search workloads over the gossip overlays: replicated content placed
// on the warm RINGCAST overlay, then TTL-limited queries under three
// strategies — Ferretti-style TTL-gossip with local-knowledge caches,
// Gnutella-style flooding, and k random walks — swept over
// replication factor x TTL. The headline table is hit rate and message
// cost per query; the literature's ordering (flood >= ttl-gossip >=
// random walk on both axes) is enforced, not just printed.
//
// JSON series kind: "search_sweep" (scripts/check_bench_json.py).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "search/query.hpp"

namespace {

using namespace vs07;
using search::QueryOptions;
using search::SearchReport;
using search::SearchStrategy;

QueryOptions optionsFor(SearchStrategy strategy, std::uint32_t ttl,
                        std::uint32_t replication) {
  QueryOptions options = QueryOptions::ttlGossip(ttl, 2);
  options.strategy = strategy;
  if (strategy != SearchStrategy::kTtlGossip)
    options.cacheCapacity = 0;  // the baselines run cache-free
  options.replication = replication;
  return options;
}

int run(const bench::Scale& scale,
        const std::vector<SearchStrategy>& strategies,
        std::uint32_t engineThreads) {
  bench::printHeader("search_workload",
                     "query routing over the self-organised overlays "
                     "(TTL-gossip vs flood vs k random walks)",
                     scale);

  bench::Stopwatch warmupTimer;
  auto builder = analysis::Scenario::builder()
                     .nodes(scale.nodes)
                     .seed(scale.seed)
                     .timing(scale.timing);
  if (engineThreads > 0) builder.engineThreads(engineThreads);
  const auto scenario = builder.build();
  std::printf("warm-up: %u cycles over %u nodes (%s timing%s) in %.2fs\n\n",
              scenario.config().warmupCycles, scale.nodes,
              scale.timingName.c_str(),
              engineThreads > 0 ? ", sharded engine" : "",
              warmupTimer.seconds());

  const std::vector<std::uint32_t> replicationAxis = {2, 8, 32};
  const std::vector<std::uint32_t> ttlAxis =
      scale.quick ? std::vector<std::uint32_t>{2, 4, 6, 8}
                  : std::vector<std::uint32_t>{2, 4, 6, 8, 10};
  const auto queries = scale.runs;

  bench::JsonReport report("search_workload", scale);
  report.setParam("queries_per_point", Json(queries));

  // hitRates[strategy index][replication index][ttl index], for the
  // ordering check after the sweep.
  std::vector<std::vector<std::vector<double>>> hitRates(
      strategies.size(),
      std::vector<std::vector<double>>(replicationAxis.size()));

  if (scale.csv)
    std::printf("strategy,replication,ttl,hit_rate_percent,"
                "cache_hit_percent,avg_hops,msgs_per_query\n");
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const auto strategy = strategies[s];
    for (std::size_t r = 0; r < replicationAxis.size(); ++r) {
      const auto replication = replicationAxis[r];
      std::vector<SearchReport> sweep;
      if (!scale.csv)
        std::printf("%s, replication %u (%u queries/point):\n",
                    search::searchStrategyName(strategy), replication,
                    queries);
      for (const auto ttl : ttlAxis) {
        auto session =
            scenario.querySession(optionsFor(strategy, ttl, replication));
        sweep.push_back(session.run(queries));
        const auto& point = sweep.back();
        hitRates[s][r].push_back(point.hitRatePercent());
        if (scale.csv)
          std::printf("%s,%u,%u,%.2f,%.2f,%.2f,%.1f\n",
                      search::searchStrategyName(strategy), replication, ttl,
                      point.hitRatePercent(),
                      100.0 * point.cacheHitFraction(),
                      point.avgHopsToResolve(), point.messagesPerQuery());
        else
          std::printf("  ttl %2u: %6.2f%% hit (%5.2f%% via cache), "
                      "%5.2f hops to hit, %8.1f msgs/query\n",
                      ttl, point.hitRatePercent(),
                      100.0 * point.cacheHitFraction(),
                      point.avgHopsToResolve(), point.messagesPerQuery());
      }
      if (!scale.csv) std::printf("\n");
      report.addSeries(analysis::searchSweepSeries(
          std::string(search::searchStrategyName(strategy)) + "_r" +
              std::to_string(replication),
          sweep.front(), sweep));
    }
  }

  // The ordering the literature predicts, enforced pointwise on every
  // (replication, ttl) cell whenever all three strategies ran: flooding
  // covers a superset of the gossip frontier, which covers more ground
  // than k walkers.
  bool ok = true;
  if (strategies.size() == 3) {
    for (std::size_t r = 0; r < replicationAxis.size(); ++r)
      for (std::size_t t = 0; t < ttlAxis.size(); ++t) {
        const double flood = hitRates[1][r][t];
        const double gossip = hitRates[0][r][t];
        const double walk = hitRates[2][r][t];
        if (flood + 1e-9 < gossip || gossip + 1e-9 < walk) {
          std::fprintf(stderr,
                       "FAIL: hit-rate ordering violated at replication %u "
                       "ttl %u: flood %.2f%%, ttlgossip %.2f%%, "
                       "randomwalk %.2f%%\n",
                       replicationAxis[r], ttlAxis[t], flood, gossip, walk);
          ok = false;
        }
      }
    if (ok)
      std::printf("ordering check: flood >= ttlgossip >= randomwalk holds "
                  "on all %zu cells\n",
                  replicationAxis.size() * ttlAxis.size());
  }

  report.write(scale);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Search workload sweep: hit rate / cost of TTL-gossip (with "
      "local-knowledge caches), flood, and k-random-walk queries over the "
      "frozen RINGCAST overlay, per replication factor and TTL.");
  parser.option("search", "strategy to sweep: all | ttlgossip | flood | "
                          "randomwalk (default all)")
      .option("engine-threads", "build the overlay on the sharded engine "
                                "with this many workers (default 0 = "
                                "sequential engine; results are identical "
                                "for any count)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/600,
                                         /*quickRuns=*/256);

  std::vector<std::string> searchVocabulary = {"all"};
  for (const auto& choice : vs07::search::searchStrategyChoices())
    searchVocabulary.push_back(choice);
  const auto searchChoice = bench::argOrExit(
      [&] { return args->getChoice("search", searchVocabulary, 0); });
  const auto engineThreads = bench::engineThreadsOrExit(*args);

  std::vector<SearchStrategy> strategies;
  if (searchChoice == 0)
    strategies = {SearchStrategy::kTtlGossip, SearchStrategy::kFlood,
                  SearchStrategy::kRandomWalk};
  else
    strategies = {static_cast<SearchStrategy>(searchChoice - 1)};
  return run(scale, strategies, engineThreads);
}
