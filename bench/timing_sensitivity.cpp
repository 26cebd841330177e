// Timing sensitivity — does the paper's cycle-synchronous evaluation
// model matter? §7 argues it does not ("nodes have independent,
// non-synchronized timers"; uniform delay does not change macroscopic
// behaviour) but the claim is only testable on a discrete-event core.
//
// This bench reproduces Fig. 6/7-style effectiveness and progress curves
// under three timing models and puts them side by side:
//   * cyclesync — the paper's model (PeerSim cycles, instant exchanges);
//   * jittered  — independent phase-shifted per-node gossip timers;
//   * latency   — jittered timers plus a uniform 1..4-tick delivery
//     latency on *all* traffic (gossip exchanges included, so delay
//     shapes overlay construction too).
// A live push wave is also published per model to measure its extent in
// simulated ticks (0 under synchronous delivery, >0 under latency).
//
// Expected shape: RINGCAST stays at 0% miss under cyclesync and jittered
// (determinism survives asynchrony); latency-laden gossip may leave the
// ring marginally less converged, and the wave acquires a nonzero
// duration — differences are statistical, not structural, which is
// exactly the §7 claim.
//
// --engine-threads N runs every model on the sharded engine with N
// workers (all three on its one conservative-lookahead schedule) and
// appends a thread-scaling sweep *per timing mode*
// (series "<model>_thread_scaling"). Live waves are a sequential-engine
// feature and are skipped in sharded runs.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "sim/timing.hpp"

namespace {

using namespace vs07;
using cast::Strategy;

struct Model {
  std::string name;
  sim::TimingConfig config;
};

/// --timing picks one model; without it every model runs side by side.
std::vector<Model> selectModels(const CliArgs& args) {
  std::vector<Model> all;
  for (std::size_t i = 0; i < bench::timingChoices().size(); ++i)
    all.push_back({bench::timingChoices()[i], bench::timingPreset(i)});
  if (!args.has("timing")) return all;
  const std::size_t pick = args.getChoice("timing", bench::timingChoices(), 0);
  return {all[pick]};
}

int run(const bench::Scale& scale, const std::vector<Model>& models,
        std::uint32_t engineThreads) {
  bench::printHeader(
      "Timing sensitivity: effectiveness & progress across timing models",
      "§7 claims timing assumptions are immaterial: RingCast misses "
      "nothing under cyclesync and jittered timers; latency-laden gossip "
      "may soften the curves statistically, never structurally",
      scale);

  bench::JsonReport report("timing_sensitivity", scale);
  // The record's mandatory top-level timing object describes scale.timing
  // (the --timing selection, cyclesync by default); when several models
  // run side by side the per-series timing objects are authoritative, and
  // this param names the full set so consumers never have to guess.
  {
    Json names = Json::array();
    for (const auto& model : models) names.push(model.name);
    report.setParam("timing_models", std::move(names));
  }
  auto sweep = bench::makeSweep(scale);
  const std::vector<std::uint32_t> fanouts = {1, 2, 3, 4, 5, 6, 8, 10};

  // The effectiveness table grows two columns per model; assembled after
  // the model loop once the header is known.
  std::vector<std::string> effectivenessHeader = {"fanout"};
  std::vector<std::vector<std::string>> cells(fanouts.size());
  for (std::size_t i = 0; i < fanouts.size(); ++i)
    cells[i].push_back(std::to_string(fanouts[i]));

  Table waves({"timing", "publishes", "delivered%", "mean_spread_ticks",
               "mean_last_hop"});

  bool scalingOk = true;
  for (const auto& model : models) {
    bench::Stopwatch modelTimer;
    auto scenario = analysis::Scenario::builder()
                        .nodes(scale.nodes)
                        .seed(scale.seed)
                        .engineThreads(engineThreads)
                        .timing(model.config)
                        .build();

    // -- Fig. 6-style effectiveness over the frozen overlay ------------
    const auto rand = sweep.sweepEffectiveness(
        scenario, Strategy::kRandCast, fanouts, scale.runs, scale.seed + 1);
    const auto ring = sweep.sweepEffectiveness(
        scenario, Strategy::kRingCast, fanouts, scale.runs, scale.seed + 2);
    for (std::size_t i = 0; i < fanouts.size(); ++i) {
      cells[i].push_back(fmtLog(rand[i].avgMissPercent));
      cells[i].push_back(fmtLog(ring[i].avgMissPercent));
    }
    effectivenessHeader.push_back(model.name + "_rand_miss%");
    effectivenessHeader.push_back(model.name + "_ring_miss%");

    auto randSeries = bench::effectivenessSeries(model.name + "_randcast",
                                                 rand);
    randSeries.set("timing", bench::JsonReport::timingJson(model.config));
    report.addSeries(std::move(randSeries));
    auto ringSeries = bench::effectivenessSeries(model.name + "_ringcast",
                                                 ring);
    ringSeries.set("timing", bench::JsonReport::timingJson(model.config));
    report.addSeries(std::move(ringSeries));

    // -- Fig. 7-style progress at the paper's F = 3 --------------------
    const auto progress = sweep.measureProgress(
        scenario, Strategy::kRingCast, 3, scale.runs, scale.seed + 3);
    auto progressSeries =
        bench::progressSeries(model.name + "_ringcast_f3", progress);
    progressSeries.set("timing", bench::JsonReport::timingJson(model.config));
    report.addSeries(std::move(progressSeries));

    // -- per-mode thread scaling on the sharded engine -----------------
    if (engineThreads >= 1) {
      const std::uint32_t warmup = scale.quick ? 10 : 50;
      const std::uint32_t measured = scale.quick ? 3 : 10;
      scalingOk &= bench::runThreadScaling(
          {.nodes = scale.nodes,
           .warmupCycles = warmup,
           .measuredCycles = measured,
           .maxThreads = engineThreads,
           .seed = scale.seed,
           .timing = model.config,
           .label = model.name + "_thread_scaling"},
          report);
      // Live waves are a sequential-engine feature (LiveSession rides
      // the engine's event queue); skip them in sharded runs.
      std::printf("%s: sweeps + thread scaling in %.2fs (live waves "
                  "skipped: sharded run)\n",
                  model.name.c_str(), modelTimer.seconds());
      continue;
    }

    // -- one live wave per model: extent in simulated ticks ------------
    auto& live = scenario.liveSession(
        {.strategy = Strategy::kRingCast, .fanout = 3,
         .seed = scale.seed + 4});
    const std::uint32_t publishes = 3;
    double deliveredPct = 0.0;
    double meanSpread = 0.0;
    double meanLastHop = 0.0;
    // Only latency delivery leaves a wave in flight after publish();
    // synchronous models complete inside the call and need no settling.
    const std::uint32_t settleCycles =
        model.config.latency.kind == sim::LatencyModel::Kind::kNone ? 0 : 150;
    for (std::uint32_t p = 0; p < publishes; ++p) {
      live.publishFromRandom();
      if (settleCycles > 0) scenario.runCycles(settleCycles);
      const auto settled = live.report(live.lastDataId());
      const auto& stats = live.live().stats(live.lastDataId());
      deliveredPct += 100.0 * static_cast<double>(settled.notified) /
                      static_cast<double>(settled.aliveTotal);
      meanSpread += static_cast<double>(stats.spreadTicks());
      meanLastHop += static_cast<double>(settled.lastHop);
    }
    deliveredPct /= publishes;
    meanSpread /= publishes;
    meanLastHop /= publishes;
    waves.addRow({model.name, std::to_string(publishes),
                  fmt(deliveredPct, 2), fmt(meanSpread, 1),
                  fmt(meanLastHop, 1)});
    report.addSeries(
        Json::object()
            .set("label", model.name + "_live_wave")
            .set("kind", "live_wave")
            .set("timing", bench::JsonReport::timingJson(model.config))
            .set("publishes", publishes)
            .set("delivered_percent", deliveredPct)
            .set("mean_spread_ticks", meanSpread)
            .set("mean_last_hop", meanLastHop));

    std::printf("%s: sweeps + %u live waves in %.2fs\n", model.name.c_str(),
                publishes, modelTimer.seconds());
  }

  std::printf("\n--- miss ratio vs fanout, per timing model ---\n");
  Table effectiveness(std::move(effectivenessHeader));
  for (const auto& row : cells) effectiveness.addRow(row);
  std::fputs(
      (scale.csv ? effectiveness.renderCsv() : effectiveness.render())
          .c_str(),
      stdout);
  if (engineThreads == 0) {
    std::printf("\n--- live RingCast wave (F=3) per timing model ---\n");
    std::fputs((scale.csv ? waves.renderCsv() : waves.render()).c_str(),
               stdout);
  }

  report.write(scale);
  return scalingOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parser = bench::makeParser(
      "Timing sensitivity of hybrid dissemination: Fig. 6/7-style curves "
      "under cyclesync vs jittered vs latency-laden timing (all three "
      "side by side unless --timing picks one).");
  parser.option("engine-threads",
                "run every model on the sharded engine with N workers "
                "(bit-identical for any N >= 1) and append a per-mode "
                "thread-scaling sweep; 0 = classic sequential engine "
                "(default)");
  const auto args = parser.parseOrExit(argc, argv);
  if (!args) return 0;
  const auto scale = bench::resolveScale(*args, /*quickNodes=*/1'000,
                                         /*quickRuns=*/10);
  const auto models = bench::argOrExit([&] { return selectModels(*args); });
  const auto engineThreads = bench::engineThreadsOrExit(*args);
  return run(scale, models, engineThreads);
}
