// Well-formedness of every gossip view in a scenario: the CYCLON view and
// each ring's VICINITY view of every node ever created. A view must not
// name its owner, must name each node at most once and must hold at most
// its capacity. ViewInvariantControl checks it at every cycle boundary
// of either engine.
//
// Header-only for the same reason as golden.hpp: every tests/**/*.cpp
// builds into its own gtest binary.
#pragma once

#include <cstdint>

#include <gtest/gtest.h>

#include "analysis/scenario.hpp"
#include "gossip/view.hpp"
#include "sim/engine.hpp"

namespace vs07::harness {

/// Checks one view owned by `owner`.
inline ::testing::AssertionResult viewWellFormed(const gossip::View& view,
                                                 NodeId owner) {
  if (view.owner() != owner)
    return ::testing::AssertionFailure()
           << "view of node " << owner << " is owned by " << view.owner();
  if (view.size() > view.capacity())
    return ::testing::AssertionFailure()
           << "view of node " << owner << " holds " << view.size()
           << " entries, capacity " << view.capacity();
  const auto entries = view.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (e.node == owner)
      return ::testing::AssertionFailure()
             << "view of node " << owner << " names its owner";
    for (std::size_t j = 0; j < i; ++j)
      if (entries[j].node == e.node)
        return ::testing::AssertionFailure()
               << "view of node " << owner << " names node " << e.node
               << " twice";
  }
  return ::testing::AssertionSuccess();
}

/// Checks every CYCLON and VICINITY view of `scenario`, every ring of its
/// MultiRing included; reports the first violation.
inline ::testing::AssertionResult viewsWellFormed(
    const analysis::Scenario& scenario) {
  for (NodeId n = 0; n < scenario.network().totalCreated(); ++n) {
    auto result = viewWellFormed(scenario.cyclon().view(n), n);
    if (!result) return result << " (CYCLON)";
    for (std::uint32_t r = 0; r < scenario.rings().ringCount(); ++r) {
      result = viewWellFormed(scenario.rings().ring(r).view(n), n);
      if (!result) return result << " (VICINITY ring " << r << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A cycle-boundary control that checks viewsWellFormed each time it
/// runs and counts its runs. It reads views only, so registering it
/// draws from no stream and changes no result.
class ViewInvariantControl final : public sim::Control {
 public:
  explicit ViewInvariantControl(const analysis::Scenario& scenario)
      : scenario_(scenario) {}

  void execute(std::uint64_t cycle) override {
    ++runs_;
    EXPECT_TRUE(viewsWellFormed(scenario_)) << "at cycle " << cycle;
  }

  std::uint64_t runs() const noexcept { return runs_; }

 private:
  const analysis::Scenario& scenario_;
  std::uint64_t runs_ = 0;
};

}  // namespace vs07::harness
