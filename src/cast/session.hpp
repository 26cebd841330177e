// CastSession — the one experiment-facing way to disseminate a message,
// regardless of execution model:
//
//   * SnapshotSession runs the paper's frozen-overlay model (§7.1): the
//     overlay is captured once, and every publish() is a deterministic
//     hop-synchronous dissemination driven by cast::disseminate.
//   * LiveSession runs through the transport against the *current*
//     protocol views, with optional anti-entropy pull recovery (§8:
//     windowed digests, random-useful answers) — LiveCast under the
//     hood.
//
// Both speak the same cast::Strategy plug-point and return the same
// DeliveryReport, so an experiment switches between the probabilistic,
// deterministic, and hybrid algorithms — and between the snapshot and
// live execution paths — without changing its measurement code. Sessions
// are normally created through analysis::Scenario, which owns the wiring.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cast/disseminator.hpp"
#include "cast/live.hpp"
#include "cast/report.hpp"
#include "cast/snapshot.hpp"
#include "cast/strategy.hpp"
#include "common/rng.hpp"
#include "net/node_id.hpp"

namespace vs07::cast {

/// Everything configurable about a dissemination session. The pull-layer
/// knobs only apply to LiveSession with Strategy::kPushPull.
struct CastOptions {
  Strategy strategy = Strategy::kRingCast;
  /// The system-wide fanout F.
  std::uint32_t fanout = 3;
  /// Root seed of the session's random choices (origins, target picks).
  std::uint64_t seed = 1;
  /// Record per-node forwarded/received counters in reports.
  bool recordLoad = false;

  // -- live-path knobs ---------------------------------------------------
  /// Engine cycles run after each publish before the report is taken
  /// (gives the pull layer time to backfill; 0 = report the push wave).
  std::uint32_t settleCycles = 0;
  /// A node issues one PullRequest every `pullInterval` of its own steps;
  /// only used by Strategy::kPushPull (push-only strategies never pull).
  std::uint32_t pullInterval = 1;
  /// Ids per pull window: the slice of its buffer a PullRequest
  /// advertises (§8 knob).
  std::uint32_t digestLength = 16;
  /// Per-node message buffer capacity (§8 knob).
  std::uint32_t bufferCapacity = 64;
  /// Max messages pushed back per pull answer (§8 knob).
  std::uint32_t pullBudget = 8;
  /// Hard cap on concurrently tracked message ids (full stats + O(N)
  /// delivery bitmap); beyond it ids retire into the steady-state
  /// counters and can no longer be report()ed.
  std::uint32_t maxTrackedMessages = 1024;
  /// Eagerly retire completed messages this many ticks after they cover
  /// the population (0 = only retire under cap pressure).
  std::uint64_t completedLingerTicks = 0;
};

/// Uniform interface over the snapshot and live dissemination paths.
class CastSession {
 public:
  explicit CastSession(CastOptions options);
  virtual ~CastSession() = default;

  /// Disseminates one message from `origin` (must be alive) and returns
  /// its report. Successive publishes draw fresh randomness from the
  /// session seed, so a sequence of publishes is deterministic in it.
  virtual DeliveryReport publish(NodeId origin) = 0;

  /// publish() from a uniformly random alive origin.
  virtual DeliveryReport publishFromRandom() = 0;

  const CastOptions& options() const noexcept { return options_; }
  Strategy strategy() const noexcept { return options_.strategy; }

 protected:
  CastOptions options_;
  Rng rng_;
};

/// Frozen-overlay dissemination (the paper's main evaluation model).
class SnapshotSession final : public CastSession {
 public:
  /// Captures nothing itself: the caller provides the frozen overlay
  /// (analysis::Scenario::snapshotSession snapshots the right links for
  /// the strategy). Strategy::kPushPull is rejected — pull recovery
  /// needs a transport, i.e. a LiveSession.
  SnapshotSession(OverlaySnapshot overlay, CastOptions options);

  DeliveryReport publish(NodeId origin) override;
  DeliveryReport publishFromRandom() override;

  const OverlaySnapshot& overlay() const noexcept { return overlay_; }

 private:
  OverlaySnapshot overlay_;
};

/// Transport-driven dissemination against live views (LiveCast), with
/// anti-entropy pull when the strategy is kPushPull.
class LiveSession final : public CastSession {
 public:
  /// Wires a LiveCast into an existing simulated system. `vicinity` and
  /// `rings` select the d-link source per the strategy (both may be null
  /// for kRandCast). Registers the pull heartbeat on `engine`. All
  /// references must outlive the session; normally constructed by
  /// analysis::Scenario::liveSession.
  LiveSession(sim::Network& network, net::Transport& transport,
              sim::MessageRouter& router, sim::Engine& engine,
              const gossip::Cyclon& cyclon, const gossip::Vicinity* vicinity,
              const gossip::MultiRing* rings, CastOptions options);

  /// Pushes a message, runs options().settleCycles engine cycles (pull
  /// backfill), and reports. Under message latency the report covers
  /// whatever has been delivered so far; settle more cycles and call
  /// report() to re-measure.
  DeliveryReport publish(NodeId origin) override;
  DeliveryReport publishFromRandom() override;

  /// Re-measures a previously published message (e.g. after running more
  /// cycles); misses shrink as the pull layer backfills.
  DeliveryReport report(std::uint64_t dataId) const;

  /// The id of the most recent publish (for report()).
  std::uint64_t lastDataId() const noexcept { return lastDataId_; }

  /// The underlying live dissemination service (inspection, §8 knobs).
  LiveCast& live() noexcept { return live_; }
  const LiveCast& live() const noexcept { return live_; }

 private:
  struct Baseline {
    std::uint64_t pullRequests = 0;
    std::vector<std::uint32_t> forwards;
    std::vector<std::uint32_t> received;
  };
  DeliveryReport buildReport(std::uint64_t dataId,
                             const Baseline& baseline) const;

  sim::Network& network_;
  sim::Engine& engine_;
  LiveCast live_;
  std::unordered_map<std::uint64_t, Baseline> baselines_;
  std::uint64_t lastDataId_ = 0;
};

}  // namespace vs07::cast
