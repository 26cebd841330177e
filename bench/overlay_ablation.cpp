// Ablation over the deterministic flooding overlays of §3: spanning
// tree, star, bidirectional ring (= Harary-2), Harary graphs of higher
// connectivity, and clique. For each overlay: message cost of a complete
// flood, and miss ratio after killing a fraction of the nodes (flooding,
// no healing).
//
// Expected shape (§3's qualitative discussion):
//   * tree: minimal messages (N-1) but any interior failure loses a branch;
//   * star: 2 hops, hub failure loses everything;
//   * ring: cheap, survives any 1 failure, partitions at 2+;
//   * Harary(t): survives t-1 failures at proportional link cost;
//   * clique: bulletproof and absurdly expensive.
#include <cstdio>
#include <functional>

#include "analysis/parallel_sweep.hpp"
#include "bench_common.hpp"
#include "cast/snapshot.hpp"
#include "common/table.hpp"
#include "overlay/graph.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

struct OverlayCase {
  std::string name;
  std::function<overlay::Graph(std::uint32_t, Rng&)> build;
};

int run(const bench::Scale& scale) {
  bench::printHeader(
      "Overlay ablation (paper §3): flooding cost and resilience",
      "tree = optimal messages but fragile; star = hub bottleneck; "
      "ring survives 1 failure; Harary(t) survives t-1; clique survives "
      "anything at O(N^2) cost",
      scale);
  bench::JsonReport report("overlay_ablation", scale);
  auto sweep = bench::makeSweep(scale);

  const std::vector<OverlayCase> cases = {
      {"tree", [](std::uint32_t n, Rng& rng) {
         return overlay::makeRandomTree(n, rng);
       }},
      {"star", [](std::uint32_t n, Rng&) { return overlay::makeStar(n); }},
      {"ring(H2)", [](std::uint32_t n, Rng&) { return overlay::makeRing(n); }},
      {"harary3", [](std::uint32_t n, Rng&) {
         return overlay::makeHarary(3, n);
       }},
      {"harary4", [](std::uint32_t n, Rng&) {
         return overlay::makeHarary(4, n);
       }},
      {"harary6", [](std::uint32_t n, Rng&) {
         return overlay::makeHarary(6, n);
       }},
  };

  Table table({"overlay", "links/node", "msgs_failfree", "miss%_kill1",
               "miss%_kill2", "miss%_kill1%", "miss%_kill5%"});

  for (const auto& testCase : cases) {
    Rng buildRng(scale.seed);
    const auto graph = testCase.build(scale.nodes, buildRng);
    const double linksPerNode =
        static_cast<double>(graph.edgeCount()) / graph.size();

    std::vector<std::string> row{testCase.name, fmt(linksPerNode, 1)};
    // Fail-free flood cost.
    const auto clean = sweep.measureEffectiveness(
        cast::snapshotGraph(graph), Strategy::kFlood, 1, scale.runs,
        scale.seed + 1);
    row.push_back(fmt(clean.avgMessagesTotal, 0));

    // Kill sweeps: absolute counts (1, 2 nodes) probe the Harary bound;
    // percentage kills probe large-scale damage.
    const std::vector<std::pair<std::string, std::uint32_t>> kills = {
        {"1", 1},
        {"2", 2},
        {"1%", scale.nodes / 100},
        {"5%", scale.nodes / 20}};
    for (const auto& [label, count] : kills) {
      (void)label;
      // Each repetition (kill pattern + flood) derives its own stream
      // from (seed + count, rep), so repetitions are independent cells:
      // they run across the pool and sum in repetition order.
      std::vector<double> missPerRep(scale.runs, 0.0);
      const std::uint32_t killCount = count;
      sweep.pool().parallelFor(scale.runs, [&](std::size_t rep) {
        Rng killRng(deriveStreamSeed(scale.seed + killCount, rep));
        std::vector<std::uint8_t> alive(scale.nodes, 1);
        for (std::uint32_t k = 0; k < killCount;) {
          const auto victim =
              static_cast<NodeId>(killRng.below(scale.nodes));
          if (alive[victim]) {
            alive[victim] = 0;
            ++k;
          }
        }
        const auto point = analysis::ParallelSweep().measureEffectiveness(
            cast::snapshotGraph(graph, alive), Strategy::kFlood, 1, 1,
            killRng());
        missPerRep[rep] = point.avgMissPercent;
      });
      double missSum = 0.0;
      for (const double miss : missPerRep) missSum += miss;
      row.push_back(fmtLog(missSum / scale.runs));
    }
    table.addRow(std::move(row));
  }

  std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
             stdout);
  std::printf(
      "\nNote: clique omitted from kill sweeps by default (O(N^2) links); "
      "its miss ratio is 0 for any failure not killing the origin.\n");

  report.addSeries(bench::tableSeries("overlay_resilience", table));
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parser = bench::makeParser(
      "Ablation of §3's deterministic flooding overlays: message cost "
      "and failure resilience of tree/star/ring/Harary overlays.");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  return run(bench::resolveScale(*args, /*quickNodes=*/1'000,
                                 /*quickRuns=*/30));
}
