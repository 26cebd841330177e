#include "cast/session.hpp"

#include <utility>

#include "common/expect.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace vs07::cast {

namespace {

LiveCast::Params liveParams(const CastOptions& options) {
  LiveCast::Params params;
  params.fanout = options.fanout;
  params.flood = options.strategy == Strategy::kFlood;
  // Push-only strategies never pull; kPushPull pulls at the configured
  // interval (0 would silently degrade to pure push, so reject it).
  if (options.strategy == Strategy::kPushPull) {
    VS07_EXPECT(options.pullInterval >= 1);
    params.pullInterval = options.pullInterval;
  } else {
    params.pullInterval = 0;
  }
  params.digestLength = options.digestLength;
  params.bufferCapacity = options.bufferCapacity;
  params.pullBudget = options.pullBudget;
  params.maxTrackedMessages = options.maxTrackedMessages;
  params.completedLingerTicks = options.completedLingerTicks;
  return params;
}

}  // namespace

CastSession::CastSession(CastOptions options)
    : options_(options), rng_(options.seed) {
  VS07_EXPECT(options_.fanout >= 1);
}

// -- SnapshotSession -----------------------------------------------------

SnapshotSession::SnapshotSession(OverlaySnapshot overlay, CastOptions options)
    : CastSession(options), overlay_(std::move(overlay)) {
  VS07_EXPECT(options_.strategy != Strategy::kPushPull &&
              "pull recovery needs a transport: use a LiveSession");
  VS07_EXPECT(overlay_.aliveCount() > 0);
}

DeliveryReport SnapshotSession::publish(NodeId origin) {
  DisseminationParams params;
  params.fanout = options_.fanout;
  params.seed = rng_();
  params.recordLoad = options_.recordLoad;
  DeliveryReport report =
      disseminate(overlay_, selectorFor(options_.strategy), origin, params);
  report.strategy = options_.strategy;
  return report;
}

DeliveryReport SnapshotSession::publishFromRandom() {
  return publish(overlay_.aliveIds()[rng_.below(overlay_.aliveIds().size())]);
}

// -- LiveSession ---------------------------------------------------------

LiveSession::LiveSession(sim::Network& network, net::Transport& transport,
                         sim::MessageRouter& router, sim::Engine& engine,
                         const gossip::Cyclon& cyclon,
                         const gossip::Vicinity* vicinity,
                         const gossip::MultiRing* rings, CastOptions options)
    : CastSession(options),
      network_(network),
      engine_(engine),
      live_(network, transport, router, cyclon,
            // kRandCast forwards over r-links only; every d-link strategy
            // wants ring neighbours — the multi-ring union when the
            // strategy asks for it and several rings exist.
            options.strategy == Strategy::kRandCast ? nullptr : vicinity,
            liveParams(options), options.seed ^ 0x6C697665ULL) {
  if (options.strategy == Strategy::kMultiRing) {
    VS07_EXPECT(rings != nullptr);
    // LiveCast picks d-links at forward time, so upgrading from ring 0
    // to the multi-ring union is safe before any publish.
    if (rings->ringCount() > 1) live_.useMultiRing(*rings);
  }
  live_.attachClock(engine_);
  engine_.addProtocol(live_);
}

DeliveryReport LiveSession::publish(NodeId origin) {
  Baseline baseline;
  baseline.pullRequests = live_.pullRequestsSent();
  if (options_.recordLoad) {
    baseline.forwards = live_.forwardsPerNode();
    baseline.received = live_.receivedPerNode();
  }
  const std::uint64_t dataId = live_.publish(origin);
  lastDataId_ = dataId;
  baselines_[dataId] = std::move(baseline);
  // Keep the per-publish baselines bounded alongside LiveCast's own
  // tracking: once an id has retired it can no longer be report()ed, so
  // its baseline is dead weight under a sustained publish rate.
  if (baselines_.size() > 2 * live_.params().maxTrackedMessages)
    std::erase_if(baselines_, [this](const auto& entry) {
      return !live_.isTracked(entry.first);
    });
  if (options_.settleCycles > 0) engine_.run(options_.settleCycles);
  return report(dataId);
}

DeliveryReport LiveSession::publishFromRandom() {
  return publish(network_.randomAlive(rng_));
}

DeliveryReport LiveSession::report(std::uint64_t dataId) const {
  const auto it = baselines_.find(dataId);
  VS07_EXPECT(it != baselines_.end() && "unknown dataId: publish it first");
  return buildReport(dataId, it->second);
}

DeliveryReport LiveSession::buildReport(std::uint64_t dataId,
                                        const Baseline& baseline) const {
  const LiveMessageStats& stats = live_.stats(dataId);

  DeliveryReport report;
  report.strategy = options_.strategy;
  report.fanout = options_.fanout;
  report.origin = stats.origin;
  report.aliveTotal = network_.aliveCount();
  report.notified = 0;  // recomputed over the *currently* alive set below
  report.pushDelivered = stats.pushDelivered;
  report.pullDelivered = stats.pullDelivered;
  report.newlyNotifiedPerHop = stats.newlyNotifiedPerHop;
  report.lastHop = stats.lastHop;
  report.messagesTotal = stats.messagesSent;
  report.messagesRedundant = stats.redundantDeliveries;
  report.messagesToDead = stats.messagesToDead;
  // Virgin = first deliveries to alive nodes = everyone notified except
  // the origin (which delivers to itself without a message).
  report.messagesVirgin = stats.delivered() > 0 ? stats.delivered() - 1 : 0;
  report.pullRequests = live_.pullRequestsSent() - baseline.pullRequests;

  for (const NodeId id : network_.aliveIds()) {
    if (live_.hasDelivered(dataId, id))
      ++report.notified;
    else
      report.missed.push_back(id);
  }

  if (options_.recordLoad) {
    const auto diff = [](const std::vector<std::uint32_t>& now,
                         const std::vector<std::uint32_t>& before) {
      std::vector<std::uint32_t> delta(now.size(), 0);
      for (std::size_t i = 0; i < now.size(); ++i)
        delta[i] = now[i] - (i < before.size() ? before[i] : 0);
      return delta;
    };
    report.forwardsPerNode = diff(live_.forwardsPerNode(), baseline.forwards);
    report.receivedPerNode = diff(live_.receivedPerNode(), baseline.received);
  }
  return report;
}

}  // namespace vs07::cast
