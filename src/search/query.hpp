// TTL-limited search over the gossip overlays — the query workload.
//
// The RingCast/VICINITY views were built to *push* messages; Ferretti's
// "Searching in Unstructured Overlays Using Local Knowledge and Gossip"
// shows the same structures answering *queries*: a node looking for an
// item forwards a TTL-limited request over its overlay links, and
// per-node local-knowledge caches — learned from traffic that passed by
// earlier — resolve repeat queries at a fraction of the flood cost.
//
// QuerySession reproduces that evaluation over a frozen
// cast::OverlaySnapshot with three strategies behind one SearchReport:
//
//   * kTtlGossip   — each newly reached node forwards the query to
//                    `fanout` random overlay neighbours, `ttl` hops deep
//                    (Ferretti's gossip search).
//   * kFlood       — forward to *all* overlay neighbours (Gnutella-style
//                    baseline; maximal hit rate, maximal cost).
//   * kRandomWalk  — `walkers` independent walkers each take up to `ttl`
//                    uniform-random steps (the classic low-cost
//                    baseline).
//
// Execution is hop-synchronous and purely a function of
// (overlay, options): like cast::disseminate, a query replays over the
// frozen links without touching any transport or engine clock. That is
// what makes search reports conformance-testable — any two scenarios
// whose overlays are bit-identical (e.g. the sharded engine at different
// worker counts) produce bit-identical SearchReports.
//
// The local-knowledge cache never *routes* — forwarding draws are
// identical with and without it; it only adds ways for a query to
// resolve. That asymmetry is the invariant the property suite pins:
// enabling the cache can only raise the hit rate at equal (ttl, fanout)
// budget.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cast/snapshot.hpp"
#include "cast/strategy.hpp"
#include "common/rng.hpp"
#include "net/node_id.hpp"
#include "search/content.hpp"

namespace vs07::search {

/// The forwarding rule of a search (see file comment).
enum class SearchStrategy : std::uint8_t {
  kTtlGossip = 0,
  kFlood = 1,
  kRandomWalk = 2,
};

/// Stable lowercase name — the CLI / bench-JSON vocabulary
/// ("ttlgossip" / "flood" / "randomwalk").
const char* searchStrategyName(SearchStrategy strategy) noexcept;

/// The --search choice list, index-aligned with SearchStrategy.
const std::vector<std::string>& searchStrategyChoices();

/// Everything configurable about a query workload.
struct QueryOptions {
  SearchStrategy strategy = SearchStrategy::kTtlGossip;
  /// Which overlay snapshot analysis::Scenario freezes for the session
  /// (same vocabulary as dissemination: kRandCast = r-links only,
  /// kRingCast = r-links + ring d-links, kMultiRing = all rings).
  cast::Strategy overlay = cast::Strategy::kRingCast;
  /// Maximum forwarding depth (gossip/flood) or walk length (walkers).
  std::uint32_t ttl = 8;
  /// kTtlGossip: overlay neighbours each reached node forwards to.
  std::uint32_t fanout = 2;
  /// kRandomWalk: independent walkers launched per query.
  std::uint32_t walkers = 4;
  /// Catalogue size (items are dense ids [0, items)).
  std::uint32_t items = 64;
  /// Copies of each item placed on distinct alive nodes.
  std::uint32_t replication = 8;
  /// Local-knowledge entries per node (0 disables the cache layer).
  std::uint32_t cacheCapacity = 16;
  /// Seed caches at build time with the items each node's direct overlay
  /// neighbours hold — Ferretti's gossip-advertised local knowledge.
  bool advertiseToNeighbours = true;
  /// Nodes on a resolved query's answer path learn (item -> holder).
  bool learnFromTraffic = true;
  /// Root seed of placement, origin/item draws, and forwarding picks.
  std::uint64_t seed = 1;

  // -- presets -----------------------------------------------------------

  /// Ferretti's evaluated configuration: TTL-gossip with caches on.
  static QueryOptions ttlGossip(std::uint32_t ttl = 8,
                                std::uint32_t fanout = 2) noexcept {
    QueryOptions o;
    o.strategy = SearchStrategy::kTtlGossip;
    o.ttl = ttl;
    o.fanout = fanout;
    return o;
  }
  /// Flood baseline at the same TTL (caches off: flooding needs none).
  static QueryOptions flood(std::uint32_t ttl = 8) noexcept {
    QueryOptions o;
    o.strategy = SearchStrategy::kFlood;
    o.ttl = ttl;
    o.cacheCapacity = 0;
    return o;
  }
  /// k-random-walk baseline at the same TTL (caches off).
  static QueryOptions randomWalk(std::uint32_t walkers = 4,
                                 std::uint32_t ttl = 8) noexcept {
    QueryOptions o;
    o.strategy = SearchStrategy::kRandomWalk;
    o.walkers = walkers;
    o.ttl = ttl;
    o.cacheCapacity = 0;
    return o;
  }
};

/// Everything measured about one batch of queries. All counters are
/// integers so reports compare bit-exactly across execution models (the
/// conformance harness's contract); the rates are derived on demand.
struct SearchReport {
  SearchStrategy strategy = SearchStrategy::kTtlGossip;
  std::uint32_t ttl = 0;
  std::uint32_t fanout = 0;
  std::uint32_t walkers = 0;
  std::uint32_t items = 0;
  std::uint32_t replication = 0;

  std::uint64_t queries = 0;
  /// Queries that located a copy (directly or via a cache entry).
  std::uint64_t resolved = 0;
  /// Of `resolved`: queries whose *first* resolution came from a
  /// local-knowledge cache entry rather than a direct copy.
  std::uint64_t cacheResolved = 0;

  /// Query forwards, including redundant deliveries and messages
  /// absorbed by dead link targets (answer traffic is not counted — the
  /// cost metric of the paper is query propagation).
  std::uint64_t messagesTotal = 0;
  std::uint64_t messagesToDead = 0;

  /// Sum of the resolution hop over resolved queries (hop 0 = resolved
  /// at the origin itself).
  std::uint64_t hopsToResolveTotal = 0;
  /// resolvedPerHop[h] = queries first resolved at hop h; size ttl + 1.
  std::vector<std::uint64_t> resolvedPerHop;

  /// Cache entries written by answer-path learning while this batch ran
  /// (advertisement seeding happens once at session build and is
  /// visible through QuerySession::cachedEntries instead).
  std::uint64_t cacheInsertions = 0;

  double hitRatePercent() const noexcept {
    return queries == 0 ? 0.0
                        : 100.0 * static_cast<double>(resolved) /
                              static_cast<double>(queries);
  }
  /// Fraction of resolved queries answered by a cache entry.
  double cacheHitFraction() const noexcept {
    return resolved == 0 ? 0.0
                         : static_cast<double>(cacheResolved) /
                               static_cast<double>(resolved);
  }
  double avgHopsToResolve() const noexcept {
    return resolved == 0 ? 0.0
                         : static_cast<double>(hopsToResolveTotal) /
                               static_cast<double>(resolved);
  }
  double messagesPerQuery() const noexcept {
    return queries == 0 ? 0.0
                        : static_cast<double>(messagesTotal) /
                              static_cast<double>(queries);
  }

  friend bool operator==(const SearchReport&, const SearchReport&) = default;
};

/// Human-readable one-liner (gtest failure messages, bench logs).
std::ostream& operator<<(std::ostream& out, const SearchReport& report);

/// One query workload over one frozen overlay (see file comment).
/// Stateful: local-knowledge caches persist across run() calls, so a
/// session's report sequence is deterministic in (overlay, options) but
/// individual runs are order-sensitive — exactly like a deployed system
/// whose caches warm up under traffic.
class QuerySession {
 public:
  QuerySession(cast::OverlaySnapshot overlay, QueryOptions options);

  /// Issues `queries` searches — each from a uniform-random alive origin
  /// for a uniform-random item — and returns the aggregate report.
  /// Query i draws from its own derived rng stream, so the batch is
  /// reproducible and insensitive to how it is split across run() calls
  /// (cache state aside).
  SearchReport run(std::uint32_t queries);

  /// Issues one search for `item` from `origin` (must be alive),
  /// accumulating into `report`. Returns true if the query resolved.
  bool runOne(NodeId origin, ItemId item, SearchReport& report);

  const cast::OverlaySnapshot& overlay() const noexcept { return overlay_; }
  const ContentPlacement& placement() const noexcept { return placement_; }
  const QueryOptions& options() const noexcept { return options_; }

  /// Live cache entries across all nodes (inspection / tests).
  std::uint64_t cachedEntries() const noexcept;

 private:
  struct CacheEntry {
    ItemId item = kNoItem;
    NodeId holder = kNoNode;
  };
  static constexpr ItemId kNoItem = ~ItemId{0};

  NodeId cacheLookup(NodeId node, ItemId item) const;
  bool cacheInsert(NodeId node, ItemId item, NodeId holder);
  void learnAlongPath(NodeId last, ItemId item, NodeId holder,
                      SearchReport& report);
  void seedAdvertisedKnowledge();

  bool runSpreading(NodeId origin, ItemId item, bool flood, Rng& rng,
                    SearchReport& report);
  bool runWalkers(NodeId origin, ItemId item, Rng& rng, SearchReport& report);

  cast::OverlaySnapshot overlay_;
  QueryOptions options_;
  ContentPlacement placement_;

  // Per-node bounded FIFO caches, flattened: node n owns slots
  // [n * cacheCapacity, (n + 1) * cacheCapacity).
  std::vector<CacheEntry> cache_;
  std::vector<std::uint32_t> cacheNext_;

  // Per-query scratch, version-stamped so a new query never clears the
  // arrays (the epoch trick the engines use).
  std::vector<std::uint32_t> visitedEpoch_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> nextFrontier_;
  // r-links ++ d-links of the node a TTL-gossip query is shuffling.
  std::vector<NodeId> linkScratch_;
  std::vector<NodeId> walkerPos_;
  std::vector<std::vector<NodeId>> walkerPath_;
  std::uint32_t epoch_ = 0;
  std::uint64_t queriesIssued_ = 0;
};

}  // namespace vs07::search
