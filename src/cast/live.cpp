#include "cast/live.hpp"

#include <algorithm>

#include "cast/selector.hpp"
#include "common/expect.hpp"

namespace vs07::cast {

MessageStore::MessageStore(std::uint32_t capacity) : capacity_(capacity) {
  VS07_EXPECT(capacity > 0);
}

void MessageStore::remember(std::uint64_t dataId) {
  if (seen_.contains(dataId)) return;
  if (size() == capacity_) {
    // Evict before inserting: same survivors as insert-then-evict, and
    // the seen-set never holds more than capacity ids.
    const std::uint64_t oldest = fifo_[head_++];
    maxEvicted_ = std::max(maxEvicted_, oldest);
    seen_.erase(oldest);
    evicted_ = true;
    if (head_ == capacity_) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  seen_.insert(dataId);
  fifo_.push_back(dataId);
}

void MessageStore::clear() {
  std::vector<std::uint64_t>().swap(fifo_);
  head_ = 0;
  seen_.clear();
  evicted_ = false;
  maxEvicted_ = 0;
}

LiveCast::LiveCast(sim::Network& network, net::Transport& transport,
                   sim::MessageRouter& router, const gossip::Cyclon& cyclon,
                   const gossip::Vicinity* vicinity, Params params,
                   std::uint64_t seed)
    : network_(network),
      transport_(transport),
      cyclon_(cyclon),
      vicinity_(vicinity),
      params_(params),
      rng_(seed) {
  registerHandlers(router);
}

void LiveCast::registerHandlers(sim::MessageRouter& router) {
  VS07_EXPECT(params_.fanout >= 1);
  VS07_EXPECT(params_.digestLength >= 1);
  VS07_EXPECT(params_.bufferCapacity >= 1);
  VS07_EXPECT(params_.pullBudget >= 1);
  VS07_EXPECT(params_.maxTrackedMessages >= 1);
  router.route(net::MessageKind::Data,
               [this](NodeId to, const net::Message& m) {
                 handleData(to, m);
               });
  router.route(net::MessageKind::PullRequest,
               [this](NodeId to, const net::Message& m) {
                 handlePullRequest(to, m);
               });
  network_.addObserver(*this);
}

void LiveCast::onReserve(NodeId count) {
  stores_.reserve(count);
  stepCount_.reserve(count);
  pullWindowPos_.reserve(count);
  forwardsPerNode_.reserve(count);
  receivedPerNode_.reserve(count);
}

void LiveCast::onSpawn(NodeId node) {
  if (node >= stores_.size()) {
    stores_.resize(node + 1, MessageStore(params_.bufferCapacity));
    stepCount_.resize(node + 1, 0);
    pullWindowPos_.resize(node + 1, 0);
    forwardsPerNode_.resize(node + 1, 0);
    receivedPerNode_.resize(node + 1, 0);
  }
  stores_[node] = MessageStore(params_.bufferCapacity);
  stepCount_[node] = 0;
  pullWindowPos_[node] = 0;
}

void LiveCast::onKill(NodeId node) { stores_[node].clear(); }

const LiveCast::TrackedMessage* LiveCast::find(std::uint64_t dataId) const {
  const std::span<const TrackedMessage> tracked(tracked_.data(),
                                                trackedCount_);
  const auto it = std::ranges::lower_bound(
      tracked, dataId, {},
      [](const TrackedMessage& m) { return m.stats.dataId; });
  return it != tracked.end() && it->stats.dataId == dataId ? &*it : nullptr;
}

std::uint64_t LiveCast::liveBitmapBytes() const {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < trackedCount_; ++i)
    bytes += tracked_[i].deliveredTo.size();
  return bytes;
}

void LiveCast::retire(std::size_t index) {
  if (tracked_[index].stats.completed()) {
    ++steady_.retiredCompleted;
  } else {
    ++steady_.retiredAgedOut;
  }
  // Move the record just past the tracked prefix; the others keep their
  // publish order.
  const auto record = tracked_.begin() + static_cast<std::ptrdiff_t>(index);
  std::rotate(record, record + 1,
              tracked_.begin() + static_cast<std::ptrdiff_t>(trackedCount_));
  --trackedCount_;
}

void LiveCast::reclaimTracked() {
  // Eager retirement of lingering completed messages (sustained mode).
  // Only the oldest tracked prefix is considered: completion is roughly
  // FIFO in publish order, and the hard cap below bounds the rest.
  if (params_.completedLingerTicks > 0 && clock_ != nullptr) {
    const std::uint64_t now = clock_->nowTick();
    while (trackedCount_ > 0) {
      const LiveMessageStats& front = tracked_.front().stats;
      if (!front.completed() ||
          now - front.completedAtTick < params_.completedLingerTicks)
        break;
      retire(0);
    }
  }
  // Hard cap: make room for the next publish, preferring a victim whose
  // wave already finished; only when every tracked message is still
  // incomplete does the oldest age out with per-node state unresolved.
  while (trackedCount_ >= params_.maxTrackedMessages) {
    std::size_t victim = 0;
    for (std::size_t i = 0; i < trackedCount_; ++i) {
      if (tracked_[i].stats.completed()) {
        victim = i;
        break;
      }
    }
    retire(victim);
  }
}

std::uint64_t LiveCast::publish(NodeId origin) {
  VS07_EXPECT(network_.isAlive(origin));
  reclaimTracked();
  const std::uint64_t dataId = nextDataId_++;
  if (trackedCount_ == tracked_.size()) tracked_.emplace_back();
  TrackedMessage& message = tracked_[trackedCount_++];
  // Reset a recycled record in place: its hop histogram and bitmap keep
  // their capacity.
  auto hops = std::move(message.stats.newlyNotifiedPerHop);
  hops.clear();
  message.stats = LiveMessageStats{};
  message.stats.newlyNotifiedPerHop = std::move(hops);
  message.stats.dataId = dataId;
  message.stats.origin = origin;
  if (clock_ != nullptr) {
    message.stats.publishedAtTick = clock_->nowTick();
    message.stats.lastDeliveryTick = message.stats.publishedAtTick;
  }
  message.deliveredTo.assign(network_.totalCreated(), 0);
  ++steady_.published;
  steady_.peakTracked = std::max<std::uint64_t>(steady_.peakTracked,
                                                trackedCount_);
  steady_.peakTrackedBitmapBytes =
      std::max(steady_.peakTrackedBitmapBytes, liveBitmapBytes());
  stores_[origin].remember(dataId);
  deliverLocally(origin, dataId, /*viaPull=*/false, /*hop=*/0,
                 /*recovery=*/false);
  forward(origin, kNoNode, dataId, /*hop=*/0, /*recovery=*/false);
  drainOutbox();
  return dataId;
}

void LiveCast::step(NodeId self) {
  ++stepCount_[self];
  if (params_.pullInterval == 0) return;
  if (stepCount_[self] % params_.pullInterval != 0) return;

  const auto& view = cyclon_.view(self);
  if (view.empty()) return;
  const NodeId target = view.at(rng_.below(view.size())).node;

  // Rotating window: advertise a digestLength-wide slice of the buffer
  // with explicit id bounds, advancing the slice every pull so successive
  // requests sweep the whole buffer oldest-first, never wrapping. When
  // the slice reaches the newest end, the upper bound opens to +inf so
  // brand-new ids the peer holds are offered too; ids below the lower
  // bound are outside the requester's recovery horizon (evicted or never
  // wanted), which keeps steady-state pulls from resurrecting
  // long-evicted messages. An empty buffer wants anything: [0, +inf).
  const MessageStore& store = stores_[self];
  const auto held = store.buffered();
  std::size_t& pos = pullWindowPos_[self];
  if (pos >= held.size()) pos = 0;
  const auto window = held.subspan(
      pos, std::min<std::size_t>(params_.digestLength, held.size() - pos));
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};
  if (!window.empty()) {
    const auto [minIt, maxIt] =
        std::minmax_element(window.begin(), window.end());
    // The slice minimum is a recovery horizon only once this buffer has
    // actually evicted; before that, "not buffered" provably means
    // "never received" (a joiner must be able to recover ids older than
    // everything it holds), so the window opens to 0. After eviction the
    // bound also clears the ids this buffer already dropped (eviction is
    // FIFO by arrival, so under latency jumble an evicted id can exceed
    // the slice minimum): peers must not waste answers on ids handleData
    // would drop as zombies anyway.
    if (store.hasEvicted())
      lo = std::max(*minIt, store.recoveryHorizon() + 1);
    pos += window.size();
    if (pos < held.size()) hi = *maxIt;
  }

  net::Message& request = pullScratch_;
  request.reset();
  request.kind = net::MessageKind::PullRequest;
  request.flags = net::kFlagWindowedDigest;
  request.from = self;
  request.ids.push_back(lo);
  request.ids.push_back(hi);
  request.ids.insert(request.ids.end(), window.begin(), window.end());
  ++pullsSent_;
  transport_.send(target, std::move(request));
  drainOutbox();  // pull answers may have queued forwards
}

void LiveCast::handleData(NodeId self, const net::Message& msg) {
  const bool viaPull = (msg.flags & net::kFlagPullAnswer) != 0;
  const bool recovery =
      viaPull || (msg.flags & net::kFlagRecoveryWave) != 0;
  receivedPerNode_[self] += 1;
  auto& store = stores_[self];
  if (store.hasSeen(msg.dataId)) {
    ++redundant_;
    ++steady_.redundantDeliveries;
    if (TrackedMessage* message = find(msg.dataId))
      ++message->stats.redundantDeliveries;
    return;
  }
  // Recovery horizon, receiver side. The requester's windowed digest
  // bounds what peers may serve, but FIFO-by-arrival eviction is jumbled
  // across nodes, so an id this node already evicted can still fall
  // inside the window it advertised. Accepting such a pull-layer
  // re-delivery would re-buffer the id and evict another one early —
  // the positive feedback behind supercritical re-wave storms. Push
  // traffic is exempt: §8's "evicted ids are new again" semantics apply
  // to the origin wave's own stragglers, not to recovery repairs.
  if (recovery && msg.dataId <= store.recoveryHorizon()) {
    ++recoveryDropped_;
    return;
  }
  store.remember(msg.dataId);
  deliverLocally(self, msg.dataId, viaPull, msg.hop, recovery);
  forward(self, msg.from, msg.dataId, msg.hop, recovery);
}

void LiveCast::deliverLocally(NodeId self, std::uint64_t dataId,
                              bool viaPull, std::uint32_t hop,
                              bool recovery) {
  // Before the stats lookup: in a multi-process run only the origin owns
  // stats for an id, but every process must see its own deliveries.
  if (deliveryHook_) deliveryHook_(self, dataId, hop, viaPull);
  TrackedMessage* message = find(dataId);
  if (message == nullptr) return;  // untracked id: no per-id account
  LiveMessageStats& stats = message->stats;
  std::vector<std::uint8_t>& bitmap = message->deliveredTo;
  if (bitmap.size() < network_.totalCreated())
    bitmap.resize(network_.totalCreated(), 0);
  if (bitmap[self]) {
    // Re-delivery after buffer eviction: the node already counted.
    ++redundant_;
    ++steady_.redundantDeliveries;
    ++stats.redundantDeliveries;
    return;
  }
  bitmap[self] = 1;
  ++steady_.firstDeliveries;
  if (clock_ != nullptr && clock_->nowTick() > stats.lastDeliveryTick)
    stats.lastDeliveryTick = clock_->nowTick();
  if (recovery) {
    // Pull answers and the re-wave they trigger: late recovery, not part
    // of the origin push wave — keep the hop histogram clean.
    ++stats.pullDelivered;
    ++steady_.pullDeliveries;
  } else {
    ++stats.pushDelivered;
    ++steady_.pushDeliveries;
    if (stats.newlyNotifiedPerHop.size() <= hop)
      stats.newlyNotifiedPerHop.resize(hop + 1, 0);
    ++stats.newlyNotifiedPerHop[hop];
    if (hop > stats.lastHop) stats.lastHop = hop;
  }
  if (!stats.completed() && stats.delivered() >= network_.aliveCount())
    stats.completedAtTick =
        clock_ != nullptr ? clock_->nowTick() : stats.lastDeliveryTick;
}

void LiveCast::forward(NodeId self, NodeId receivedFrom,
                       std::uint64_t dataId, std::uint32_t hop,
                       bool recovery) {
  // Targets come from the node's *current* views: r-links from CYCLON,
  // d-links from the ring when a VICINITY layer is attached (Fig. 5),
  // otherwise pure RANDCAST (Fig. 2). The link scratch is consumed
  // before the first enqueue; the target list lives until the end of the
  // enqueue loop (which can re-enter forward() through a synchronous
  // transport), hence the per-depth buffer.
  std::vector<NodeId>& rlinks = rlinkScratch_;
  rlinks.clear();
  for (const auto& e : cyclon_.view(self).entries())
    rlinks.push_back(e.node);

  if (forwardDepth_ == targetScratch_.size()) targetScratch_.emplace_back();
  std::vector<NodeId>& targets = targetScratch_[forwardDepth_];
  ++forwardDepth_;
  if (vicinity_ != nullptr || multiRing_ != nullptr) {
    std::vector<NodeId>& dlinks = dlinkScratch_;
    dlinks.clear();
    auto addNeighbors = [&dlinks](const gossip::RingNeighbors& ring) {
      auto add = [&dlinks](NodeId n) {
        if (n != kNoNode &&
            std::find(dlinks.begin(), dlinks.end(), n) == dlinks.end())
          dlinks.push_back(n);
      };
      add(ring.successor);
      add(ring.predecessor);
    };
    if (multiRing_ != nullptr) {
      for (std::uint32_t r = 0; r < multiRing_->ringCount(); ++r)
        addNeighbors(multiRing_->ring(r).ringNeighbors(self));
    } else {
      addNeighbors(vicinity_->ringNeighbors(self));
    }
    targets.resize(rlinks.size() + dlinks.size());
    targets.resize(params_.flood
                       ? floodTargets(rlinks, dlinks, self, receivedFrom,
                                      targets)
                       : hybridTargets(rlinks, dlinks, self, receivedFrom,
                                       params_.fanout, rng_, targets));
  } else {
    // No d-link source attached: pure r-link flood or RANDCAST.
    targets.resize(rlinks.size());
    targets.resize(params_.flood
                       ? floodTargets(rlinks, {}, self, receivedFrom, targets)
                       : randomTargets(rlinks, self, receivedFrom,
                                       params_.fanout, rng_, targets));
  }
  forwardsPerNode_[self] += static_cast<std::uint32_t>(targets.size());
  for (const NodeId target : targets)
    enqueueData(target, self, dataId, hop + 1, /*viaPull=*/false, recovery);
  --forwardDepth_;
}

void LiveCast::enqueueData(NodeId to, NodeId from, std::uint64_t dataId,
                           std::uint32_t hop, bool viaPull, bool recovery) {
  if (TrackedMessage* message = find(dataId)) {
    ++message->stats.messagesSent;
    if (!network_.isAlive(to)) ++message->stats.messagesToDead;
  }
  net::Message msg;
  msg.kind = net::MessageKind::Data;
  msg.from = from;
  msg.dataId = dataId;
  msg.hop = hop;
  if (viaPull) {
    msg.flags |= net::kFlagPullAnswer;
    ++pullAnswers_;
  } else {
    if (recovery) {
      msg.flags |= net::kFlagRecoveryWave;
      ++recoveryForwards_;
    }
    ++pushSent_;
  }
  outbox_.push_back({to, std::move(msg)});
  if (!draining_) drainOutbox();
}

void LiveCast::drainOutbox() {
  if (draining_) return;
  draining_ = true;
  while (outboxHead_ < outbox_.size()) {
    // Compact the drained prefix once it dominates the buffer, so peak
    // memory tracks the outstanding backlog (what the frontier still
    // owes), not the total message count of the wave. Amortized O(1)
    // per message thanks to the half-full threshold.
    if (outboxHead_ >= 1024 && outboxHead_ * 2 >= outbox_.size()) {
      outbox_.erase(outbox_.begin(),
                    outbox_.begin() + static_cast<std::ptrdiff_t>(outboxHead_));
      outboxHead_ = 0;
    }
    // Moved out before sending: re-entrant enqueues may grow (and
    // reallocate) the outbox while the transport runs.
    Outgoing next = std::move(outbox_[outboxHead_]);
    ++outboxHead_;
    // Synchronous transports re-enter handleData -> enqueueData here;
    // those sends land on the queue instead of the call stack, so even a
    // node-by-node crawl along the whole ring stays at depth one.
    transport_.send(next.to, std::move(next.msg));
  }
  outbox_.clear();  // backlog-sized capacity retained for the next wave
  outboxHead_ = 0;
  draining_ = false;
}

void LiveCast::handlePullRequest(NodeId self, const net::Message& msg) {
  // Every PullRequest carries [lo, hi] bounds in ids[0..1] and the
  // requester's window in ids[2..]; anything else goes unanswered.
  if ((msg.flags & net::kFlagWindowedDigest) == 0 || msg.ids.size() < 2)
    return;
  const std::uint64_t lo = msg.ids[0];
  const std::uint64_t hi = msg.ids[1];
  // The requester's held ids, sorted once so each buffered id costs a
  // binary search: a window may carry kMaxWireEntries ids off the wire,
  // and a linear scan per buffered id would let one frame cost tens of
  // millions of comparisons. Candidates are still visited in buffer
  // order, so every draw below is unchanged.
  auto& digest = pullDigestScratch_;
  digest.assign(msg.ids.begin() + 2, msg.ids.end());
  std::sort(digest.begin(), digest.end());
  // Useful = buffered, inside the bounds, not in the window. The budget
  // is spent on a *uniform random* subset of the useful ids
  // (random-useful selection, Sanghavi et al.): under many concurrent
  // flows every gap gets equal repair pressure, where newest-first would
  // starve old gaps behind a stream of fresh ids.
  auto& candidates = pullCandidateScratch_;
  candidates.clear();
  for (const std::uint64_t dataId : stores_[self].buffered()) {
    if (dataId < lo || dataId > hi ||
        std::binary_search(digest.begin(), digest.end(), dataId))
      continue;
    candidates.push_back(dataId);
  }
  const std::size_t take =
      std::min<std::size_t>(params_.pullBudget, candidates.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng_.below(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
    enqueueData(msg.from, self, candidates[i], /*hop=*/0, /*viaPull=*/true,
                /*recovery=*/false);
  }
}

const LiveMessageStats& LiveCast::stats(std::uint64_t dataId) const {
  const TrackedMessage* message = find(dataId);
  VS07_EXPECT(message != nullptr);
  return message->stats;
}

SteadyStateStats LiveCast::steadyStats() const {
  SteadyStateStats out = steady_;
  out.trackedNow = trackedCount_;
  out.trackedBitmapBytes = liveBitmapBytes();
  return out;
}

bool LiveCast::hasDelivered(std::uint64_t dataId, NodeId node) const {
  const TrackedMessage* message = find(dataId);
  return message != nullptr && node < message->deliveredTo.size() &&
         message->deliveredTo[node] != 0;
}

double LiveCast::missRatioPercentNow(std::uint64_t dataId) const {
  const TrackedMessage* message = find(dataId);
  VS07_EXPECT(message != nullptr);
  const auto& bitmap = message->deliveredTo;
  std::uint64_t deliveredAlive = 0;
  std::uint64_t alive = 0;
  for (const NodeId id : network_.aliveIds()) {
    ++alive;
    deliveredAlive += id < bitmap.size() && bitmap[id] ? 1 : 0;
  }
  if (alive == 0) return 0.0;
  return 100.0 * static_cast<double>(alive - deliveredAlive) /
         static_cast<double>(alive);
}

}  // namespace vs07::cast
