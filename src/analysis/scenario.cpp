#include "analysis/scenario.hpp"

#include <utility>

#include "common/expect.hpp"
#include "sim/bootstrap.hpp"
#include "sim/failures.hpp"

namespace vs07::analysis {

/// All the wiring, heap-allocated so Scenario moves cheaply and the
/// this-capturing delivery lambdas stay valid. Member order mirrors the
/// construction dependencies (and the former ProtocolStack, preserving
/// its seed derivation so results stay reproducible across the refactor).
struct Scenario::Core {
  Config config;
  sim::Network network;
  sim::MessageRouter router;
  net::ImmediateTransport transport;
  sim::Engine engine;
  /// Built when any link-level condition is configured (loss,
  /// partitions, clusters, bandwidth, ...); attached to the latency
  /// transport below.
  std::unique_ptr<sim::NetworkModel> model;
  /// Built when the timing config carries a latency model *or* network
  /// conditions exist; gossip and dissemination then both ride the
  /// engine's event queue (the only place per-link conditions can be
  /// resolved at delivery-scheduling time).
  std::unique_ptr<sim::LatencyTransport> latency;
  gossip::Cyclon cyclon;
  gossip::MultiRing rings;
  /// Built when config.engineThreads >= 1; then *it* drives the cycles
  /// (the sequential engine above stays idle) and protocols/controls are
  /// registered here instead.
  std::unique_ptr<sim::ShardedEngine> sharded;
  std::unique_ptr<sim::ChurnControl> churn;
  std::unique_ptr<sim::SessionChurnControl> sessionChurn;
  std::unique_ptr<cast::LiveSession> live;
  Rng killRng;
  std::uint64_t churnCycles = 0;
  double installedChurnRate = 0.0;

  explicit Core(const Config& c)
      : config(c),
        network(c.nodes, sim::populationSeed(c.seed)),
        router(network),
        transport(router),  // direct sink: no std::function on the hot path
        engine(network, mix64(c.seed ^ 0x656E67ULL), c.timing),
        model(c.network.any()
                  ? std::make_unique<sim::NetworkModel>(
                        c.network, network, c.timing.ticksPerCycle,
                        mix64(c.seed ^ 0x6E65746DULL))  // "netm"
                  : nullptr),
        latency(c.timing.latency.kind == sim::LatencyModel::Kind::kNone &&
                        !model
                    ? nullptr
                    : std::make_unique<sim::LatencyTransport>(
                          engine, router, c.timing.latency,
                          mix64(c.seed ^ 0x6C6174ULL))),
        cyclon(network, activeTransport(), router, c.cyclon,
               mix64(c.seed ^ 0x6379636CULL)),
        rings(network, activeTransport(), router, cyclon, c.vicinity, c.rings,
              mix64(c.seed ^ 0x72696E67ULL)),
        killRng(mix64(c.seed ^ 0xFA11EDULL)) {
    if (model) latency->setNetworkModel(model.get());
    if (c.engineThreads >= 1) {
      VS07_EXPECT(!c.network.any() &&
                  "the sharded engine runs without link-level network "
                  "conditions");
      VS07_EXPECT((c.timing.mode == sim::TimingMode::kJitteredPeriodic ||
                   c.timing.latency.kind == sim::LatencyModel::Kind::kNone) &&
                  "sharded CycleSync is latency-free; use jittered timing "
                  "for latency models");
      sharded = std::make_unique<sim::ShardedEngine>(
          network, mix64(c.seed ^ 0x73686172ULL),  // "shar"
          c.engineThreads, c.timing);
      sharded->addProtocol(cyclon);
      sharded->addProtocol(rings);
    } else {
      engine.addProtocol(cyclon);
      engine.addProtocol(rings);
    }
  }

  /// The transport gossip and dissemination ride on: immediate (the
  /// paper's cycle model) unless the config asked for message latency or
  /// network conditions.
  net::Transport& activeTransport() {
    if (latency) return *latency;
    return transport;
  }

  /// Cycle-boundary controls go to whichever engine actually runs.
  void addControlToActive(sim::Control& control) {
    if (sharded)
      sharded->addControl(control);
    else
      engine.addControl(control);
  }

  void runActive(std::uint64_t cycles) {
    if (sharded)
      sharded->run(cycles);
    else
      engine.run(cycles);
  }

  void installChurn(double rate) {
    VS07_EXPECT(!sessionChurn && "scenario already churns by session length");
    if (churn) {
      // Never silently keep churning at a different rate than asked for.
      VS07_EXPECT(rate == installedChurnRate &&
                  "churn already installed at a different rate");
      return;
    }
    churn = std::make_unique<sim::ChurnControl>(
        network, rate, mix64(config.seed ^ 0x636875726EULL));
    installedChurnRate = rate;
    churn->addJoinHandler(cyclon);
    churn->addJoinHandler(rings);
    addControlToActive(*churn);
  }

  void installSessionChurn(const sim::SessionDistribution& distribution) {
    VS07_EXPECT(!churn && "scenario already churns per cycle");
    if (sessionChurn) return;
    sessionChurn = std::make_unique<sim::SessionChurnControl>(
        network, distribution, mix64(config.seed ^ 0x636875726EULL));
    sessionChurn->addJoinHandler(cyclon);
    sessionChurn->addJoinHandler(rings);
    addControlToActive(*sessionChurn);
  }
};

Scenario::Scenario(const Config& config)
    : core_(std::make_unique<Core>(config)) {}

Scenario::Scenario(Scenario&&) noexcept = default;
Scenario& Scenario::operator=(Scenario&&) noexcept = default;
Scenario::~Scenario() = default;

ScenarioBuilder Scenario::builder() { return ScenarioBuilder{}; }

Scenario Scenario::paperStatic(std::uint32_t nodes, std::uint64_t seed,
                               sim::TimingConfig timing) {
  return builder().nodes(nodes).seed(seed).timing(timing).build();
}

Scenario Scenario::paperCatastrophic(double killFraction, std::uint32_t nodes,
                                     std::uint64_t seed,
                                     sim::TimingConfig timing) {
  Scenario scenario = builder().nodes(nodes).seed(seed).timing(timing).build();
  scenario.killRandomFraction(killFraction);
  return scenario;
}

Scenario Scenario::paperChurn(double rate, std::uint32_t nodes,
                              std::uint64_t seed,
                              std::uint64_t maxChurnCycles,
                              sim::TimingConfig timing) {
  Scenario scenario = builder().nodes(nodes).seed(seed).timing(timing).build();
  scenario.runChurnUntilFullTurnover(rate, maxChurnCycles);
  return scenario;
}

Scenario Scenario::paperPartitioned(std::uint32_t splitCycles,
                                    std::uint32_t nodes, std::uint64_t seed,
                                    sim::TimingConfig timing) {
  ScenarioBuilder b = builder();
  b.nodes(nodes).seed(seed).timing(timing);
  // The warm-up occupies cycles [0, warmupCycles); the blackout covers
  // the splitCycles cycles immediately after it.
  const std::uint64_t start = Config{}.warmupCycles;
  b.partitionRingSplit(2, start, start + splitCycles);
  return b.build();
}

Scenario Scenario::lossyWan(double lossRate, std::uint32_t nodes,
                            std::uint64_t seed) {
  return builder()
      .nodes(nodes)
      .seed(seed)
      .timing(sim::TimingConfig::jittered())
      .clusterLatency(4, sim::LatencyModel::fixed(1),
                      sim::LatencyModel::uniform(2, 8))
      .linkLoss(lossRate)
      .reordering(0.05, 3)
      .build();
}

Scenario Scenario::congested(std::uint32_t egressPerTick, std::uint32_t nodes,
                             std::uint64_t seed) {
  return builder()
      .nodes(nodes)
      .seed(seed)
      .timing(sim::TimingConfig::jitteredLatency(sim::LatencyModel::fixed(1)))
      .egressCap(egressPerTick)
      .build();
}

void Scenario::warmup() {
  sim::bootstrapStar(core_->network, core_->cyclon, /*hub=*/0);
  core_->runActive(core_->config.warmupCycles);
}

void Scenario::runCycles(std::uint64_t cycles) { core_->runActive(cycles); }

std::uint64_t Scenario::runChurnUntilFullTurnover(double rate,
                                                  std::uint64_t maxCycles) {
  core_->installChurn(rate);
  const auto done = [this] { return core_->network.initialSurvivors() == 0; };
  const auto ran = core_->sharded
                       ? core_->sharded->runUntil(done, maxCycles)
                       : core_->engine.runUntil(done, maxCycles);
  core_->churnCycles += ran;
  return ran;
}

std::uint64_t Scenario::churnCycles() const noexcept {
  return core_->churnCycles;
}

std::vector<NodeId> Scenario::killRandomFraction(double fraction) {
  return sim::killRandomFraction(core_->network, fraction, core_->killRng);
}

std::vector<NodeId> Scenario::killContiguousArc(double fraction) {
  return sim::killContiguousArc(core_->network, fraction, core_->killRng);
}

const Scenario::Config& Scenario::config() const noexcept {
  return core_->config;
}
const sim::TimingConfig& Scenario::timing() const noexcept {
  return core_->config.timing;
}
sim::Network& Scenario::network() noexcept { return core_->network; }
const sim::Network& Scenario::network() const noexcept {
  return core_->network;
}
sim::Engine& Scenario::engine() noexcept { return core_->engine; }
const sim::Engine& Scenario::engine() const noexcept { return core_->engine; }
sim::ShardedEngine* Scenario::shardedEngine() noexcept {
  return core_->sharded.get();
}
const sim::ShardedEngine* Scenario::shardedEngine() const noexcept {
  return core_->sharded.get();
}
std::uint64_t Scenario::cyclesRun() const noexcept {
  return core_->sharded ? core_->sharded->cycle() : core_->engine.cycle();
}
std::uint64_t Scenario::gossipMessagesSent() const noexcept {
  if (core_->sharded) return core_->sharded->messagesSent();
  return core_->activeTransport().sent();
}
sim::MessageRouter& Scenario::router() noexcept { return core_->router; }
gossip::Cyclon& Scenario::cyclon() noexcept { return core_->cyclon; }
const gossip::Cyclon& Scenario::cyclon() const noexcept {
  return core_->cyclon;
}
gossip::MultiRing& Scenario::rings() noexcept { return core_->rings; }
const gossip::MultiRing& Scenario::rings() const noexcept {
  return core_->rings;
}
const gossip::Vicinity& Scenario::vicinity() const {
  return core_->rings.ring(0);
}
sim::LatencyTransport* Scenario::latencyTransport() noexcept {
  return core_->latency.get();
}
sim::NetworkModel* Scenario::networkModel() noexcept {
  return core_->model.get();
}
const sim::NetworkModel* Scenario::networkModel() const noexcept {
  return core_->model.get();
}

cast::OverlaySnapshot Scenario::snapshot(cast::Strategy strategy) const {
  switch (strategy) {
    case cast::Strategy::kRandCast:
      return snapshotRandom();
    case cast::Strategy::kMultiRing:
      return snapshotMultiRing();
    case cast::Strategy::kFlood:
    case cast::Strategy::kRingCast:
    case cast::Strategy::kPushPull:
      return snapshotRing();
  }
  VS07_EXPECT(false && "unknown Strategy");
  return snapshotRing();  // unreachable
}

cast::OverlaySnapshot Scenario::snapshotRandom() const {
  return cast::snapshotRandom(core_->network, core_->cyclon);
}

cast::OverlaySnapshot Scenario::snapshotRing() const {
  return cast::snapshotRing(core_->network, core_->cyclon,
                            core_->rings.ring(0));
}

cast::OverlaySnapshot Scenario::snapshotMultiRing() const {
  return cast::snapshotMultiRing(core_->network, core_->cyclon, core_->rings);
}

cast::OverlaySnapshot Scenario::snapshotBand(std::uint32_t bandWidth) const {
  return cast::snapshotBand(core_->network, core_->cyclon,
                            core_->rings.ring(0), bandWidth);
}

cast::SnapshotSession Scenario::snapshotSession(
    cast::CastOptions options) const {
  return cast::SnapshotSession(snapshot(options.strategy), options);
}

search::QuerySession Scenario::querySession(
    const search::QueryOptions& options) const {
  return search::QuerySession(snapshot(options.overlay), options);
}

search::QuerySession Scenario::querySession() const {
  return querySession(core_->config.query);
}

cast::LiveSession& Scenario::liveSession(cast::CastOptions options) {
  VS07_EXPECT(!core_->sharded &&
              "live sessions run on the sequential engine (its tick clock "
              "and Data routes); use engineThreads(0)");
  VS07_EXPECT(!core_->live &&
              "one live session per scenario (it owns the Data routes)");
  core_->live = std::make_unique<cast::LiveSession>(
      core_->network, core_->activeTransport(), core_->router, core_->engine,
      core_->cyclon, &core_->rings.ring(0), &core_->rings, options);
  return *core_->live;
}

// -- ScenarioBuilder -----------------------------------------------------

ScenarioBuilder& ScenarioBuilder::nodes(std::uint32_t n) {
  config_.nodes = n;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t s) {
  config_.seed = s;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::engineThreads(std::uint32_t threads) {
  VS07_EXPECT(threads <= 256);
  config_.engineThreads = threads;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::rings(std::uint32_t count) {
  config_.rings = count;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::warmupCycles(std::uint32_t cycles) {
  config_.warmupCycles = cycles;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::cyclonParams(gossip::Cyclon::Params params) {
  config_.cyclon = params;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::vicinityParams(
    gossip::Vicinity::Params params) {
  config_.vicinity = params;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::timing(sim::TimingConfig config) {
  VS07_EXPECT(config.ticksPerCycle >= 1);
  config_.timing = config;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::jitteredTiming(std::uint32_t ticksPerCycle) {
  VS07_EXPECT(ticksPerCycle >= 1);
  config_.timing.mode = sim::TimingMode::kJitteredPeriodic;
  config_.timing.ticksPerCycle = ticksPerCycle;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::latency(sim::LatencyModel model) {
  config_.timing.latency = model;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::network(sim::NetworkConditions conditions) {
  config_.network = std::move(conditions);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::linkLoss(double lossRate) {
  VS07_EXPECT(lossRate >= 0.0 && lossRate <= 1.0);
  config_.network.lossRate = lossRate;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::burstLoss(
    sim::GilbertElliottLink::Params params) {
  config_.network.burstLoss = true;
  config_.network.burst = params;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::duplication(double rate) {
  VS07_EXPECT(rate >= 0.0 && rate <= 1.0);
  config_.network.duplicateRate = rate;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::reordering(double rate,
                                             std::uint32_t maxExtraTicks) {
  VS07_EXPECT(rate >= 0.0 && rate <= 1.0);
  VS07_EXPECT(maxExtraTicks >= 1);
  config_.network.reorderRate = rate;
  config_.network.reorderMaxTicks = maxExtraTicks;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::clusterLatency(std::uint32_t clusters,
                                                 sim::LatencyModel intra,
                                                 sim::LatencyModel inter) {
  VS07_EXPECT(clusters >= 1);
  config_.network.clusterLatency = {clusters, intra, inter};
  return *this;
}
ScenarioBuilder& ScenarioBuilder::egressCap(std::uint32_t messagesPerTick) {
  VS07_EXPECT(messagesPerTick >= 1);
  config_.network.bandwidth.messagesPerTick = messagesPerTick;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::conditionsFromCycle(std::uint64_t cycle) {
  config_.network.startCycle = cycle;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::partitionRingSplit(std::uint32_t groups,
                                                     std::uint64_t startCycle,
                                                     std::uint64_t endCycle) {
  using Kind = sim::NetworkConditions::PartitionPlan::Kind;
  VS07_EXPECT(groups >= 2);
  VS07_EXPECT(startCycle < endCycle);
  auto& plan = config_.network.partition;
  VS07_EXPECT((plan.kind == Kind::kNone ||
               (plan.kind == Kind::kRingSplit && plan.groups == groups)) &&
              "one partition grouping per scenario");
  plan.kind = Kind::kRingSplit;
  plan.groups = groups;
  plan.windowsCycles.emplace_back(startCycle, endCycle);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::partitionRingArc(double fraction,
                                                   std::uint64_t startCycle,
                                                   std::uint64_t endCycle) {
  using Kind = sim::NetworkConditions::PartitionPlan::Kind;
  VS07_EXPECT(fraction > 0.0 && fraction < 1.0);
  VS07_EXPECT(startCycle < endCycle);
  auto& plan = config_.network.partition;
  VS07_EXPECT((plan.kind == Kind::kNone ||
               (plan.kind == Kind::kRingArc &&
                plan.arcFraction == fraction)) &&
              "one partition grouping per scenario");
  plan.kind = Kind::kRingArc;
  plan.arcFraction = fraction;
  plan.windowsCycles.emplace_back(startCycle, endCycle);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::churn(double ratePerCycle) {
  VS07_EXPECT(ratePerCycle > 0.0 && ratePerCycle < 1.0);
  VS07_EXPECT(!config_.sessionChurn && "pick one churn model");
  config_.churnRate = ratePerCycle;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::sessionChurn(
    sim::SessionDistribution distribution) {
  VS07_EXPECT(config_.churnRate == 0.0 && "pick one churn model");
  config_.sessionChurn = true;
  config_.sessions = distribution;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::query(search::QueryOptions options) {
  config_.query = options;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::noWarmup() {
  config_.warmOnBuild = false;
  return *this;
}

Scenario ScenarioBuilder::build() {
  VS07_EXPECT(config_.nodes >= 1);
  Scenario scenario(config_);
  if (config_.warmOnBuild) scenario.warmup();
  // Churn starts only after the clean §7 self-organisation phase.
  if (config_.sessionChurn)
    scenario.core_->installSessionChurn(config_.sessions);
  else if (config_.churnRate > 0.0)
    scenario.core_->installChurn(config_.churnRate);
  return scenario;
}

}  // namespace vs07::analysis
