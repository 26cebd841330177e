// Regenerates Fig. 13 — the distribution of lifetimes of nodes that were
// NOT notified during disseminations under churn, for fanouts 3 and 6,
// both protocols (log-log in the paper).
//
// Expected shape (paper): misses concentrate on nodes younger than
// ~20-30 cycles. RINGCAST misses *more* of the very young nodes than
// RANDCAST (it spends F-2 instead of F forwards on r-links, and joiners
// have no incoming d-links yet) but almost none of the older ones, where
// RANDCAST keeps missing at every age.
#include <cstdio>

#include "analysis/parallel_sweep.hpp"
#include "bench_common.hpp"
#include "common/histogram.hpp"
#include "common/table.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

struct ProtocolMisses {
  CountHistogram fanout3;
  CountHistogram fanout6;
};

int run(const bench::Scale& scale, double churnRate,
        std::uint32_t experiments) {
  bench::printHeader(
      "Fig. 13: lifetimes of non-notified nodes under churn (F=3 and F=6)",
      "misses concentrate on nodes younger than ~20-30 cycles; RingCast "
      "misses more of the very young but nearly none of the old nodes; "
      "RandCast misses at every age",
      scale);

  bench::JsonReport report("fig13_nonnotified_lifetimes", scale);
  report.setParam("churn_rate", churnRate);
  report.setParam("experiments", experiments);

  // Each experiment (own churned network + 4 miss studies) is
  // independent, so experiments run across the pool and merge in
  // experiment order.
  auto sweep = bench::makeSweep(scale);
  bench::Stopwatch warmTimer;
  std::vector<ProtocolMisses> randPer(experiments);
  std::vector<ProtocolMisses> ringPer(experiments);
  sweep.pool().parallelFor(experiments, [&](std::size_t e) {
    const auto scenario =
        bench::buildChurned(scale, churnRate, 2000 + e,
                            /*maxChurnCycles=*/50'000, /*quiet=*/true);
    auto collect = [&](Strategy strategy, std::uint32_t fanout,
                       CountHistogram& into) {
      const auto study = analysis::ParallelSweep().measureMissLifetimes(
          scenario, strategy, fanout, scale.runs,
          scale.seed + e * 10 + fanout);
      into.merge(study.missedLifetimes);
    };
    collect(Strategy::kRandCast, 3, randPer[e].fanout3);
    collect(Strategy::kRandCast, 6, randPer[e].fanout6);
    collect(Strategy::kRingCast, 3, ringPer[e].fanout3);
    collect(Strategy::kRingCast, 6, ringPer[e].fanout6);
  });
  std::printf("churn warm-up + studies: %u independent networks at "
              "%.2f%%/cycle in %.2fs\n",
              experiments, churnRate * 100.0, warmTimer.seconds());

  ProtocolMisses rand;
  ProtocolMisses ring;
  for (std::uint32_t e = 0; e < experiments; ++e) {
    rand.fanout3.merge(randPer[e].fanout3);
    rand.fanout6.merge(randPer[e].fanout6);
    ring.fanout3.merge(ringPer[e].fanout3);
    ring.fanout6.merge(ringPer[e].fanout6);
  }

  auto printPair = [&](const char* title, const CountHistogram& randHist,
                       const CountHistogram& ringHist) {
    std::printf("\n--- %s: misses by lifetime bin ---\n", title);
    Table table({"lifetime_bin", "randcast_misses", "ringcast_misses"});
    // Render over the union of log bins of both histograms.
    CountHistogram unionHist;
    unionHist.merge(randHist);
    unionHist.merge(ringHist);
    for (const auto& bin : logBins(unionHist)) {
      std::uint64_t randCount = 0;
      std::uint64_t ringCount = 0;
      for (std::uint64_t v = bin.lo; v <= bin.hi; ++v) {
        randCount += randHist.count(v);
        ringCount += ringHist.count(v);
      }
      const std::string label = bin.lo == bin.hi
                                    ? std::to_string(bin.lo)
                                    : std::to_string(bin.lo) + "-" +
                                          std::to_string(bin.hi);
      table.addRow({label, std::to_string(randCount),
                    std::to_string(ringCount)});
    }
    std::fputs((scale.csv ? table.renderCsv() : table.render()).c_str(),
               stdout);
    std::printf("totals: randcast %llu, ringcast %llu\n",
                static_cast<unsigned long long>(randHist.total()),
                static_cast<unsigned long long>(ringHist.total()));
  };

  printPair("fanout 3", rand.fanout3, ring.fanout3);
  printPair("fanout 6", rand.fanout6, ring.fanout6);

  report.addSeries(bench::histogramSeries("randcast_f3", rand.fanout3));
  report.addSeries(bench::histogramSeries("randcast_f6", rand.fanout6));
  report.addSeries(bench::histogramSeries("ringcast_f3", ring.fanout3));
  report.addSeries(bench::histogramSeries("ringcast_f6", ring.fanout6));
  report.write(scale);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Fig. 13 of Voulgaris & van Steen (Middleware 2007): lifetime "
      "distribution of non-notified nodes under churn, fanouts 3 and 6.");
  parser.option("churn", "churn rate per cycle (default 0.002)")
      .option("experiments", "independent churn networks to aggregate "
                             "(default 2; paper used 100)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/800,
                                         /*quickRuns=*/50,
                                         bench::DefaultScale::kPaper);
  return run(scale,
             bench::argOrExit([&] { return args->getDouble("churn", 0.002); }),
             static_cast<std::uint32_t>(bench::argOrExit(
                 [&] { return args->getPositiveUint("experiments", 2); })));
}
