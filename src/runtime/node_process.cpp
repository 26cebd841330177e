#include "runtime/node_process.hpp"

#include <poll.h>

#include <algorithm>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace vs07::runtime {

namespace {

// Per-process protocol rng lanes. Unlike the sim these need not match
// any other process — real message arrival order is non-deterministic
// anyway — but deriving per (seed, selfId, lane) keeps a single node's
// choices reproducible under identical traffic.
constexpr std::uint64_t kLaneCyclon = 1;
constexpr std::uint64_t kLaneVicinity = 2;
constexpr std::uint64_t kLaneLive = 3;

cast::LiveCast::Params liveParams(const NodeProcess::Config& config) {
  cast::LiveCast::Params params;
  params.fanout = config.fanout;
  params.flood = config.strategy == cast::Strategy::kFlood;
  params.pullInterval = config.strategy == cast::Strategy::kPushPull
                            ? std::max<std::uint32_t>(1, config.pullInterval)
                            : 0;
  return params;
}

}  // namespace

NodeProcess::NodeProcess(const Config& config)
    : config_(config),
      epoch_(std::chrono::steady_clock::now()),
      network_(config.nodes, sim::populationSeed(config.seed)),
      router_(network_),
      peers_(config.nodes),
      transport_({.selfId = config.selfId, .port = config.port}, peers_,
                 router_),
      cyclon_(network_, transport_, router_,
              {.viewLength = config.viewLength,
               .shuffleLength = config.shuffleLength},
              deriveStreamSeed(config.seed, kLaneCyclon, config.selfId)),
      vicinity_(network_, transport_, router_, cyclon_,
                {.viewLength = config.viewLength},
                deriveStreamSeed(config.seed, kLaneVicinity, config.selfId)),
      live_(network_, transport_, router_, cyclon_,
            config.strategy == cast::Strategy::kRandCast ? nullptr
                                                         : &vicinity_,
            liveParams(config),
            deriveStreamSeed(config.seed, kLaneLive, config.selfId)),
      bootstrap_({.selfId = config.selfId,
                  .isSeed = config.isSeed,
                  .seedAddr = config.seedAddr},
                 transport_, peers_, cyclon_) {
  VS07_EXPECT(config_.selfId < config_.nodes);
  VS07_EXPECT(config_.cycleMs >= 1);
  // Every frame the stack builds must fit one datagram, even with a full
  // annex: CYCLON shuffles, VICINITY offers, and pull digests (the
  // window's two bounds and its ids). Data frames carry neither.
  VS07_EXPECT(gossipFrameBytes(config_.shuffleLength) <= kMaxDatagramBytes);
  VS07_EXPECT(gossipFrameBytes(vicinity_.params().exchangeLength) <=
              kMaxDatagramBytes);
  VS07_EXPECT(gossipFrameBytes(0, 2 + live_.params().digestLength) <=
              kMaxDatagramBytes);
  live_.attachClock(*this);
  // Disjoint id spaces: concurrent publishes from different processes
  // can never collide.
  live_.setNextDataId((static_cast<std::uint64_t>(config_.selfId) + 1) << 32);
  live_.setDeliveryHook([this](NodeId node, std::uint64_t dataId,
                               std::uint32_t hop, bool viaPull) {
    if (node != config_.selfId) return;
    if (!deliveredIds_.insert(dataId).second) return;  // post-eviction re-rx
    deliveries_.push_back({dataId, hop, viaPull, nowTick()});
  });
  phaseMs_ = mix64(sim::populationSeed(config_.seed) ^ config_.selfId) %
             config_.cycleMs;
}

std::uint64_t NodeProcess::nowTick() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

const NodeProcess::Delivery* NodeProcess::delivery(
    std::uint64_t dataId) const {
  for (const auto& d : deliveries_)
    if (d.dataId == dataId) return &d;
  return nullptr;
}

void NodeProcess::stepCycle() {
  cyclon_.step(config_.selfId);
  vicinity_.step(config_.selfId);
  live_.step(config_.selfId);
  ++cyclesRun_;
}

void NodeProcess::service() {
  const std::uint64_t now = nowTick();
  bootstrap_.tick(now);
  if (bootstrap_.joined() && nextStepMs_ == UINT64_MAX) {
    // Ladder settled: arm the gossip timer with the node's phase offset
    // (JitteredPeriodic's wall-clock twin) after the warmup quiet time.
    nextStepMs_ = now + phaseMs_ +
                  static_cast<std::uint64_t>(config_.warmupCycles) *
                      config_.cycleMs;
  }
  if (now >= nextStepMs_) {
    stepCycle();
    nextStepMs_ += config_.cycleMs;
    // Missed cycles (a stalled process) are dropped, not burst-replayed.
    if (nextStepMs_ <= now) nextStepMs_ = now + config_.cycleMs;
  }
  transport_.service();
}

void NodeProcess::addPollFds(std::vector<::pollfd>& fds) const {
  transport_.addPollFds(fds);
}

std::uint64_t NodeProcess::nextEventMs() const {
  return std::min(bootstrap_.nextDeadlineMs(), nextStepMs_);
}

void NodeProcess::runUntil(std::uint64_t untilMs) {
  std::vector<::pollfd> fds;
  for (;;) {
    const std::uint64_t now = nowTick();
    if (now >= untilMs) return;
    const std::uint64_t deadline = std::min(untilMs, nextEventMs());
    const std::uint64_t waitMs =
        deadline <= now ? 0 : std::min<std::uint64_t>(deadline - now, 50);
    fds.clear();
    addPollFds(fds);
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), static_cast<int>(waitMs));
    service();
  }
}

}  // namespace vs07::runtime
