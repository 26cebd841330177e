// Cross-model conformance harness — the one table that every
// determinism suite in this repo runs against.
//
// The sharded engine's headline guarantee is that a run is a pure
// function of (scenario config, timing model): the worker count must
// never show through. Before this header existed each suite re-derived
// that contract with its own copy-pasted thread loops; now a suite
// states *what* it measures and the harness supplies the table —
//
//   {CycleSync, jittered, jittered+latency} x --engine-threads {1, 2, 8}
//
// — asserting the measurement bit-identical across thread counts within
// each timing model. (Across timing models results legitimately differ:
// jitter reorders gossip, latency delays it. The contract is per-model.)
//
// Header-only on purpose: the build globs every tests/**/*.cpp into its
// own gtest binary, so shared fixtures must live in headers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "sim/timing.hpp"

namespace vs07::harness {

/// The worker counts every conformance table runs: sequential-equivalent
/// baseline, the smallest genuinely parallel count, and an
/// oversubscribed one (8 workers over a few hundred nodes).
inline const std::vector<std::uint32_t>& conformanceThreadCounts() {
  static const std::vector<std::uint32_t> kCounts = {1, 2, 8};
  return kCounts;
}

/// One row of the timing table: a CLI-vocabulary name plus the preset it
/// stands for ("latency" = jittered timers + uniform(1,4) link delays,
/// matching bench_common's timingPreset).
struct TimingCase {
  const char* name;
  sim::TimingConfig timing;
};

/// The three execution models the engines support. CycleSync+latency is
/// a contract violation (latency needs jittered timing), so the table is
/// exactly these three.
inline const std::vector<TimingCase>& conformanceTimings() {
  static const std::vector<TimingCase> kCases = {
      {"cyclesync", sim::TimingConfig::cycleSync()},
      {"jittered", sim::TimingConfig::jittered()},
      {"latency",
       sim::TimingConfig::jitteredLatency(sim::LatencyModel::uniform(1, 4))},
  };
  return kCases;
}

/// Core assertion: `makeRecord(threads)` must return the same value for
/// every worker count in `threads`. The record type needs operator==
/// (defaulted is fine) and, for readable failures, operator<<.
template <typename MakeRecord>
void expectIdenticalAcrossThreads(const std::vector<std::uint32_t>& threads,
                                  MakeRecord&& makeRecord) {
  ASSERT_GE(threads.size(), 2u) << "conformance needs a baseline + a rerun";
  const auto base = makeRecord(threads.front());
  for (std::size_t i = 1; i < threads.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << "threads=" << threads[i] << " (baseline threads="
                 << threads.front() << ")");
    EXPECT_EQ(base, makeRecord(threads[i]));
  }
}

/// Same, over the standard {1, 2, 8} table.
template <typename MakeRecord>
void expectIdenticalAcrossThreads(MakeRecord&& makeRecord) {
  expectIdenticalAcrossThreads(conformanceThreadCounts(),
                               std::forward<MakeRecord>(makeRecord));
}

/// Full table: for each timing model, build a scenario per worker count
/// with `build(threads, timing)` and require `measure(scenario)`
/// bit-identical across the counts.
template <typename Build, typename Measure>
void expectScenarioConformance(Build&& build, Measure&& measure) {
  for (const auto& timingCase : conformanceTimings()) {
    SCOPED_TRACE(::testing::Message() << "timing=" << timingCase.name);
    expectIdenticalAcrossThreads([&](std::uint32_t threads) {
      const auto scenario = build(threads, timingCase.timing);
      return measure(scenario);
    });
  }
}

/// Every view entry of every node (node, age, the node's profile from
/// its layer's table), flattened in a fixed order — the byte-level
/// fingerprint of the whole overlay state. Shared by the
/// sharded-determinism and search-conformance suites.
inline std::vector<std::uint64_t> overlayFingerprint(
    const analysis::Scenario& scenario) {
  std::vector<std::uint64_t> out;
  const sim::Network& network = scenario.network();
  const gossip::Vicinity& vicinity = scenario.vicinity();
  for (NodeId n = 0; n < network.totalCreated(); ++n) {
    for (const auto& e : scenario.cyclon().view(n).entries()) {
      out.push_back(e.node);
      out.push_back(e.age);
      out.push_back(network.seqId(e.node));
    }
    out.push_back(~0ULL);  // view separator
    for (const auto& e : vicinity.view(n).entries()) {
      out.push_back(e.node);
      out.push_back(e.age);
      out.push_back(vicinity.profileOf(e.node));
    }
    out.push_back(~0ULL);
  }
  return out;
}

}  // namespace vs07::harness
