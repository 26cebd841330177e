#include "cast/selector.hpp"

#include <algorithm>
#include <utility>

#include "common/expect.hpp"

namespace vs07::cast {

namespace {

/// Appends every link that is not `self`, not `receivedFrom` and not
/// already in out[0, n); returns the new count. The deterministic
/// component of the flood and hybrid rules.
std::size_t appendDistinctLinks(std::span<const NodeId> links, NodeId self,
                                NodeId receivedFrom, NodeId* out,
                                std::size_t n) {
  for (const NodeId link : links)
    if (link != receivedFrom && link != self &&
        std::find(out, out + n, link) == out + n)
      out[n++] = link;
  return n;
}

}  // namespace

std::size_t appendRandomTargets(std::span<const NodeId> pool, NodeId self,
                                NodeId exclude, std::size_t want, Rng& rng,
                                std::span<NodeId> out, std::size_t chosen) {
  VS07_EXPECT(out.size() >= chosen + pool.size());
  const NodeId* const links = pool.data();
  const std::size_t size = pool.size();
  NodeId* const eligible = out.data() + chosen;
  // Mark the excluded entries in the slots the picks will land in: sender
  // and self first, then each chosen target. Every pass is a branch-free
  // compare-and-or over the whole pool, which the compiler vectorises.
  for (std::size_t k = 0; k < size; ++k)
    eligible[k] = (links[k] == exclude) | (links[k] == self);
  for (std::size_t c = 0; c < chosen; ++c) {
    const NodeId taken = out[c];
    for (std::size_t k = 0; k < size; ++k) eligible[k] |= links[k] == taken;
  }
  // Compact the unmarked entries in view order, in place: slot n <= k
  // only ever overwrites a mark that has been read.
  std::size_t n = 0;
  for (std::size_t k = 0; k < size; ++k) {
    const NodeId keep = eligible[k] ^ 1;
    eligible[n] = links[k];
    n += keep;
  }
  const std::size_t take = std::min(want, n);
  for (std::size_t i = 0; i < take; ++i)
    std::swap(eligible[i], eligible[i + rng.below(n - i)]);
  return chosen + take;
}

std::size_t randomTargets(std::span<const NodeId> rlinks, NodeId self,
                          NodeId receivedFrom, std::uint32_t fanout, Rng& rng,
                          std::span<NodeId> out) {
  return appendRandomTargets(rlinks, self, receivedFrom, fanout, rng, out, 0);
}

std::size_t hybridTargets(std::span<const NodeId> rlinks,
                          std::span<const NodeId> dlinks, NodeId self,
                          NodeId receivedFrom, std::uint32_t fanout, Rng& rng,
                          std::span<NodeId> out) {
  VS07_EXPECT(out.size() >= rlinks.size() + dlinks.size());
  // Deterministic component: all outgoing d-links, never back to sender.
  const std::size_t n =
      appendDistinctLinks(dlinks, self, receivedFrom, out.data(), 0);
  // Probabilistic component: top up to the fanout with random r-links.
  if (n >= fanout) return n;
  return appendRandomTargets(rlinks, self, receivedFrom, fanout - n, rng, out,
                             n);
}

std::size_t floodTargets(std::span<const NodeId> rlinks,
                         std::span<const NodeId> dlinks, NodeId self,
                         NodeId receivedFrom, std::span<NodeId> out) {
  VS07_EXPECT(out.size() >= rlinks.size() + dlinks.size());
  const std::size_t n =
      appendDistinctLinks(dlinks, self, receivedFrom, out.data(), 0);
  return appendDistinctLinks(rlinks, self, receivedFrom, out.data(), n);
}

void TargetSelector::selectTargets(const OverlaySnapshot& overlay, NodeId self,
                                   NodeId receivedFrom, std::uint32_t fanout,
                                   Rng& rng, std::vector<NodeId>& out) const {
  const auto rlinks = overlay.rlinks(self);
  const auto dlinks = overlay.dlinks(self);
  out.resize(rlinks.size() + dlinks.size());
  switch (rule_) {
    case Rule::kFlood:
      out.resize(floodTargets(rlinks, dlinks, self, receivedFrom, out));
      return;
    case Rule::kRandom:
      out.resize(randomTargets(rlinks, self, receivedFrom, fanout, rng, out));
      return;
    case Rule::kHybrid:
      out.resize(
          hybridTargets(rlinks, dlinks, self, receivedFrom, fanout, rng, out));
      return;
  }
}

}  // namespace vs07::cast
