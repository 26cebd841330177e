#include "search/query.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <utility>

#include "common/expect.hpp"

namespace vs07::search {

namespace {

/// Stream lanes of the per-query rng derivation (arbitrary distinct
/// constants; see common/rng.hpp deriveStreamSeed).
constexpr std::uint64_t kPickLane = 0x7069636BULL;  // "pick": origin + item
constexpr std::uint64_t kWalkLane = 0x66777264ULL;  // "fwrd": forwarding

/// Slot `k` of the link list a query forwards over: r-links ++ d-links.
NodeId linkAt(std::span<const NodeId> rlinks, std::span<const NodeId> dlinks,
              std::size_t k) {
  return k < rlinks.size() ? rlinks[k] : dlinks[k - rlinks.size()];
}

}  // namespace

const char* searchStrategyName(SearchStrategy strategy) noexcept {
  switch (strategy) {
    case SearchStrategy::kTtlGossip:
      return "ttlgossip";
    case SearchStrategy::kFlood:
      return "flood";
    case SearchStrategy::kRandomWalk:
      return "randomwalk";
  }
  return "unknown";
}

const std::vector<std::string>& searchStrategyChoices() {
  static const std::vector<std::string> kChoices = {"ttlgossip", "flood",
                                                    "randomwalk"};
  return kChoices;
}

std::ostream& operator<<(std::ostream& out, const SearchReport& report) {
  out << searchStrategyName(report.strategy) << "{ttl=" << report.ttl
      << " queries=" << report.queries << " resolved=" << report.resolved
      << " cacheResolved=" << report.cacheResolved
      << " messages=" << report.messagesTotal
      << " toDead=" << report.messagesToDead
      << " hopsTotal=" << report.hopsToResolveTotal
      << " learned=" << report.cacheInsertions << " perHop=[";
  for (std::size_t h = 0; h < report.resolvedPerHop.size(); ++h)
    out << (h ? " " : "") << report.resolvedPerHop[h];
  return out << "]}";
}

QuerySession::QuerySession(cast::OverlaySnapshot overlay, QueryOptions options)
    : overlay_(std::move(overlay)),
      options_(options),
      placement_(overlay_, options.items, options.replication, options.seed) {
  VS07_EXPECT(options_.ttl >= 1);
  VS07_EXPECT(options_.items >= 1);
  VS07_EXPECT(options_.replication >= 1);
  VS07_EXPECT((options_.strategy != SearchStrategy::kTtlGossip ||
               options_.fanout >= 1));
  VS07_EXPECT((options_.strategy != SearchStrategy::kRandomWalk ||
               options_.walkers >= 1));
  const std::uint32_t totalIds = overlay_.totalIds();
  visitedEpoch_.assign(totalIds, 0);
  parent_.assign(totalIds, kNoNode);
  if (options_.cacheCapacity > 0) {
    cache_.assign(static_cast<std::size_t>(totalIds) * options_.cacheCapacity,
                  CacheEntry{});
    cacheNext_.assign(totalIds, 0);
    if (options_.advertiseToNeighbours) seedAdvertisedKnowledge();
  }
}

NodeId QuerySession::cacheLookup(NodeId node, ItemId item) const {
  if (options_.cacheCapacity == 0) return kNoNode;
  const auto* slots = cache_.data() +
                      static_cast<std::size_t>(node) * options_.cacheCapacity;
  for (std::uint32_t i = 0; i < options_.cacheCapacity; ++i)
    if (slots[i].item == item) return slots[i].holder;
  return kNoNode;
}

bool QuerySession::cacheInsert(NodeId node, ItemId item, NodeId holder) {
  if (options_.cacheCapacity == 0) return false;
  auto* slots = cache_.data() +
                static_cast<std::size_t>(node) * options_.cacheCapacity;
  for (std::uint32_t i = 0; i < options_.cacheCapacity; ++i) {
    if (slots[i].item != item) continue;
    if (slots[i].holder == holder) return false;  // already known
    slots[i].holder = holder;
    return true;
  }
  // FIFO replacement: deterministic, no recency bookkeeping to keep
  // bit-identical across execution models.
  auto& next = cacheNext_[node];
  slots[next] = {item, holder};
  next = (next + 1) % options_.cacheCapacity;
  return true;
}

void QuerySession::seedAdvertisedKnowledge() {
  // Each node learns what its direct overlay neighbours hold — the
  // steady-state local knowledge Ferretti's nodes accumulate from the
  // gossip stream. Deterministic: alive ids ascending, links in
  // snapshot order, items ascending.
  for (const NodeId node : overlay_.aliveIds()) {
    for (const auto links : {overlay_.rlinks(node), overlay_.dlinks(node)}) {
      for (const NodeId neighbour : links) {
        for (const ItemId item : placement_.itemsHeldBy(neighbour))
          cacheInsert(node, item, neighbour);
      }
    }
  }
}

void QuerySession::learnAlongPath(NodeId last, ItemId item, NodeId holder,
                                  SearchReport& report) {
  if (!options_.learnFromTraffic || options_.cacheCapacity == 0) return;
  // The answer retraces the query's first-visit chain; every node it
  // passes caches (item -> holder). Bounded by ttl: parents form a tree
  // rooted at the origin.
  for (NodeId node = last; node != kNoNode; node = parent_[node])
    if (node != holder && cacheInsert(node, item, holder))
      ++report.cacheInsertions;
}

std::uint64_t QuerySession::cachedEntries() const noexcept {
  std::uint64_t live = 0;
  for (const auto& entry : cache_)
    if (entry.item != kNoItem) ++live;
  return live;
}

bool QuerySession::runOne(NodeId origin, ItemId item, SearchReport& report) {
  VS07_EXPECT(overlay_.isAlive(origin));
  VS07_EXPECT(item < options_.items);
  if (report.resolvedPerHop.empty()) {
    report.strategy = options_.strategy;
    report.ttl = options_.ttl;
    report.fanout = options_.fanout;
    report.walkers = options_.walkers;
    report.items = options_.items;
    report.replication = options_.replication;
    report.resolvedPerHop.assign(options_.ttl + 1, 0);
  }

  Rng rng(deriveStreamSeed(options_.seed, kWalkLane, queriesIssued_));
  ++queriesIssued_;
  ++report.queries;
  ++epoch_;
  visitedEpoch_[origin] = epoch_;
  parent_[origin] = kNoNode;

  // Hop 0: the origin itself may hold the item or know a holder.
  if (placement_.holds(origin, item)) {
    ++report.resolved;
    ++report.resolvedPerHop[0];
    return true;
  }
  if (const NodeId known = cacheLookup(origin, item); known != kNoNode) {
    ++report.resolved;
    ++report.cacheResolved;
    ++report.resolvedPerHop[0];
    return true;
  }

  const bool hit =
      options_.strategy == SearchStrategy::kRandomWalk
          ? runWalkers(origin, item, rng, report)
          : runSpreading(origin, item,
                         options_.strategy == SearchStrategy::kFlood, rng,
                         report);
  return hit;
}

bool QuerySession::runSpreading(NodeId origin, ItemId item, bool flood,
                                Rng& rng, SearchReport& report) {
  const std::uint32_t totalIds = overlay_.totalIds();
  // Message counts stay local until the query ends (both returns).
  std::uint64_t sent = 0;
  std::uint64_t toDead = 0;
  frontier_.clear();
  frontier_.push_back(origin);
  for (std::uint32_t hop = 1; hop <= options_.ttl && !frontier_.empty();
       ++hop) {
    nextFrontier_.clear();
    for (const NodeId node : frontier_) {
      // A node forwards over r-links ++ d-links: all of them, read where
      // they lie, when flooding or when the fanout covers them.
      // Otherwise a partial Fisher–Yates over a copy makes the first
      // `fanout` slots the distinct random picks. Draw order is fixed, so
      // the rng consumption is a pure function of the frontier — with or
      // without the cache layer (it never routes).
      const auto rlinks = overlay_.rlinks(node);
      const auto dlinks = overlay_.dlinks(node);
      const std::size_t links = rlinks.size() + dlinks.size();
      const bool partial = !flood && options_.fanout < links;
      if (partial) {
        linkScratch_.assign(rlinks.begin(), rlinks.end());
        linkScratch_.insert(linkScratch_.end(), dlinks.begin(), dlinks.end());
        for (std::size_t i = 0; i < options_.fanout; ++i) {
          const std::size_t j = i + rng.below(links - i);
          std::swap(linkScratch_[i], linkScratch_[j]);
        }
      }
      const std::size_t sends = partial ? options_.fanout : links;
      for (std::size_t i = 0; i < sends; ++i) {
        const NodeId to =
            partial ? linkScratch_[i] : linkAt(rlinks, dlinks, i);
        ++sent;
        if (to >= totalIds || !overlay_.isAlive(to)) {
          ++toDead;
          continue;
        }
        if (visitedEpoch_[to] == epoch_) continue;  // redundant delivery
        visitedEpoch_[to] = epoch_;
        parent_[to] = node;
        // Resolution is checked at delivery: first a local copy, then
        // the local-knowledge cache. A resolved query stops forwarding
        // immediately (the answer short-circuits the wave).
        const bool direct = placement_.holds(to, item);
        const NodeId known = direct ? to : cacheLookup(to, item);
        if (known == kNoNode) {
          nextFrontier_.push_back(to);
          continue;
        }
        report.messagesTotal += sent;
        report.messagesToDead += toDead;
        ++report.resolved;
        if (!direct) ++report.cacheResolved;
        ++report.resolvedPerHop[hop];
        report.hopsToResolveTotal += hop;
        learnAlongPath(to, item, known, report);
        return true;
      }
    }
    frontier_.swap(nextFrontier_);
  }
  report.messagesTotal += sent;
  report.messagesToDead += toDead;
  return false;
}

bool QuerySession::runWalkers(NodeId origin, ItemId item, Rng& rng,
                              SearchReport& report) {
  walkerPos_.assign(options_.walkers, origin);
  if (walkerPath_.size() < options_.walkers) walkerPath_.resize(options_.walkers);
  for (auto& path : walkerPath_) path.clear();
  for (std::uint32_t w = 0; w < options_.walkers; ++w)
    walkerPath_[w].push_back(origin);

  for (std::uint32_t step = 1; step <= options_.ttl; ++step) {
    bool anyActive = false;
    for (std::uint32_t w = 0; w < options_.walkers; ++w) {
      const NodeId at = walkerPos_[w];
      if (at == kNoNode) continue;  // dead-ended earlier
      const auto rlinks = overlay_.rlinks(at);
      const auto dlinks = overlay_.dlinks(at);
      const std::size_t links = rlinks.size() + dlinks.size();
      if (links == 0) {
        walkerPos_[w] = kNoNode;
        continue;
      }
      const NodeId to = linkAt(rlinks, dlinks, rng.below(links));
      ++report.messagesTotal;
      if (to >= overlay_.totalIds() || !overlay_.isAlive(to)) {
        ++report.messagesToDead;
        walkerPos_[w] = kNoNode;  // the walk is absorbed by the dead node
        continue;
      }
      anyActive = true;
      walkerPos_[w] = to;
      walkerPath_[w].push_back(to);
      const bool direct = placement_.holds(to, item);
      const NodeId known = direct ? to : cacheLookup(to, item);
      if (known != kNoNode) {
        ++report.resolved;
        if (!direct) ++report.cacheResolved;
        ++report.resolvedPerHop[step];
        report.hopsToResolveTotal += step;
        if (options_.learnFromTraffic && options_.cacheCapacity > 0)
          for (const NodeId node : walkerPath_[w])
            if (node != known && cacheInsert(node, item, known))
              ++report.cacheInsertions;
        return true;
      }
    }
    if (!anyActive) break;
  }
  return false;
}

SearchReport QuerySession::run(std::uint32_t queries) {
  SearchReport report;
  const auto& alive = overlay_.aliveIds();
  VS07_EXPECT(!alive.empty());
  for (std::uint32_t q = 0; q < queries; ++q) {
    // Origin and item ride their own stream so adding a draw to the
    // forwarding logic never shifts workload composition.
    Rng pick(deriveStreamSeed(options_.seed, kPickLane, queriesIssued_));
    const NodeId origin = alive[pick.below(alive.size())];
    const ItemId item = static_cast<ItemId>(pick.below(options_.items));
    runOne(origin, item, report);
  }
  return report;
}

}  // namespace vs07::search
