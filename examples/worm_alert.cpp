// Worm-alert scenario — the paper's introduction motivates dissemination
// with "world-wide worm alert notifications": an alert must reach every
// node fast, even while the network itself is degrading.
//
// Here a worm knocks out a growing fraction of the population between
// alert waves (gossip stalled — routers are melting, nobody is healing
// views), and we compare how RANDCAST and RINGCAST keep delivering the
// alert as damage mounts.
//
//   $ ./worm_alert [--nodes 2000] [--fanout 3]
#include <cstdio>

#include "analysis/parallel_sweep.hpp"
#include "analysis/scenario.hpp"
#include "common/cli.hpp"

using namespace vs07;
using cast::Strategy;

int main(int argc, char** argv) {
  CliParser parser(
      "Worm-alert scenario: alert dissemination while the network "
      "degrades, no time to self-heal.");
  parser.option("nodes", "population size (default 2000)")
      .option("fanout", "alert fanout (default 3)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;

  const auto nodes =
      static_cast<std::uint32_t>(args->getUint("nodes", 2000));
  const auto fanout =
      static_cast<std::uint32_t>(args->getUint("fanout", 3));
  constexpr std::uint32_t kAlerts = 20;

  std::printf("deploying %u sensor nodes...\n", nodes);
  auto scenario = analysis::Scenario::paperStatic(nodes, /*seed=*/1337);

  Rng rng(99);
  std::printf(
      "\nworm spreading; alert waves at increasing damage (fanout %u):\n\n"
      "%-12s %-10s %-22s %-22s\n",
      fanout, "dead nodes", "alive", "RandCast avg miss %",
      "RingCast avg miss %");

  analysis::ParallelSweep sweep;
  double cumulativeKill = 0.0;
  for (const double killStep : {0.0, 0.01, 0.02, 0.02, 0.05, 0.10}) {
    if (killStep > 0.0) {
      scenario.killRandomFraction(killStep);
      cumulativeKill += killStep;
    }
    // Freeze the damaged overlay: the worm outpaces view repair.
    const auto randMiss = sweep.measureEffectiveness(
        scenario, Strategy::kRandCast, fanout, kAlerts, rng());
    const auto ringMiss = sweep.measureEffectiveness(
        scenario, Strategy::kRingCast, fanout, kAlerts, rng());
    std::printf("%-12.0f %-10u %-22.4f %-22.4f\n", cumulativeKill * 100.0,
                scenario.network().aliveCount(), randMiss.avgMissPercent,
                ringMiss.avgMissPercent);
  }

  std::printf(
      "\nRingCast's deterministic ring links keep the alert flowing "
      "around the damage; RandCast's random forwards leave islands "
      "unwarned.\n"
      "Once the worm is contained, gossip resumes and the ring self-heals "
      "(see tests/gossip/vicinity_test.cpp, SelfHealsAfterCatastrophicFailure).\n");
  return 0;
}
