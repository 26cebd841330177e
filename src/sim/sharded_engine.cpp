#include "sim/sharded_engine.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace vs07::sim {

namespace {
/// Validates the worker count before any member (notably the TaskPool,
/// whose 0 means "hardware default") is constructed from it.
std::uint32_t checkedThreads(std::uint32_t threads) {
  VS07_EXPECT(threads >= 1);
  return threads;
}

/// Validates the timing configuration up front: CycleSync ticks are step
/// batches, not time, so there is nothing to delay messages along — a
/// latency model requires jittered timing.
TimingConfig checkedTiming(TimingConfig timing) {
  VS07_EXPECT(timing.ticksPerCycle >= 1);
  VS07_EXPECT((timing.mode == TimingMode::kJitteredPeriodic ||
               timing.latency.kind == LatencyModel::Kind::kNone) &&
              "sharded CycleSync is latency-free; use jittered timing "
              "for latency models");
  return timing;
}

/// Canonical delivery order within one tick: by destination, then
/// sender, then the sender's send sequence — independent of which shard
/// buffered what and of heap pop order.
struct CanonicalOrder {
  template <typename Ref>
  bool operator()(const Ref& a, const Ref& b) const noexcept {
    if (a.to != b.to) return a.to < b.to;
    if (a.from != b.from) return a.from < b.from;
    return a.seq < b.seq;
  }
};
}  // namespace

ShardedEngine::ShardedEngine(Network& network, std::uint64_t seed,
                             std::uint32_t threads, TimingConfig timing)
    : CycleDriver(network, checkedTiming(timing)),
      shardCount_(checkedThreads(threads)),
      streamSeed_(seed),
      slotCount_(timing_.mode == TimingMode::kCycleSync
                     ? kStepBatches
                     : timing_.ticksPerCycle),
      pool_(shardCount_) {
  // senders_ must never reallocate: each worker's ShardContext keeps a
  // Transport* into it.
  senders_.resize(shardCount_);
  workers_.reserve(shardCount_);
  for (std::uint32_t s = 0; s < shardCount_; ++s) {
    senders_[s].engine = this;
    senders_[s].shard = s;
    workers_.emplace_back(s, senders_[s]);
    workers_[s].worklist.resize(slotCount_);
    senders_[s].ctx = &workers_[s].ctx;
  }
  outboxes_.resize(static_cast<std::size_t>(shardCount_) * 2 * shardCount_);
  offsetOccupied_.resize(slotCount_, 0);
  phaseFn_ = [this](std::size_t shard) { runPhase(shard); };
  // Replays existing nodes via onSpawn, sizing the per-node counters.
  network_.addObserver(growth_);
}

ShardedEngine::~ShardedEngine() {
  // The Network is passed by reference and may outlive this engine (e.g.
  // a Scenario rebuilding its engine); leaving growth_ registered would
  // dangle on the next spawn/kill.
  network_.removeObserver(growth_);
}

void ShardedEngine::addProtocol(ShardedProtocol& protocol) {
  protocols_.push_back(&protocol);
  protocol.onShardedAttach(shardCount_);
}

void ShardedEngine::ensureNode(NodeId node) {
  if (node >= eventCount_.size()) {
    eventCount_.resize(node + 1, 0);
    sendSeq_.resize(node + 1, 0);
  }
}

void ShardedEngine::BarrierSender::send(NodeId to, net::Message&& msg) {
  countSend();
  ShardedEngine& e = *engine;
  VS07_EXPECT(msg.from < e.sendSeq_.size());
  Bucket& bucket = e.outbox(shard, e.parity_, e.shardOf(to));
  if (bucket.count == bucket.slots.size()) {
    // Grow geometrically and pre-warm the new slots' payload buffers (a
    // cold slot buffer would be swapped out to a scratch message that
    // must then regrow). This is the warm-up and spike path: in steady
    // state the cycle boundary has already sized the bucket (see
    // maintainBuffers).
    const std::size_t old = bucket.slots.size();
    const std::size_t grown = std::max<std::size_t>(old + old / 2, 8);
    bucket.slots.resize(grown);
    for (std::size_t i = old; i < grown; ++i) {
      bucket.slots[i].msg.entries.reserve(entryCap);
      bucket.slots[i].msg.ids.reserve(idCap);
    }
  }
  Pending& slot = bucket.slots[bucket.count++];
  // Arrival tick: latency drawn from the acting node's event stream, in
  // send order, interleaved with the protocol's own draws — part of the
  // per-node stream, so independent of thread count. Without a latency
  // model (always so under CycleSync, by the ctor contract) draw()
  // consumes no randomness and the message is due at once.
  slot.dueTick = e.tick_ + e.timing_.latency.draw(ctx->rng());
  // Swap the payload into the recycled slot; the caller's message walks
  // away holding the slot's previous (reset) buffers.
  slot.msg.reset();
  swap(slot.msg, msg);
  // Keep every circulating buffer at the shard's high-water capacity:
  // the buffer handed back to the caller becomes protocol scratch, and a
  // scratch smaller than the largest message type (VICINITY offers pool
  // ~2 view-lengths of candidates before trimming) would reallocate the
  // next time that type fills it. Topping up here moves each buffer's
  // one-time growth to its first circulation instead of an unbounded
  // warm-up tail, which is what keeps steady-state cycles alloc-free.
  entryCap = std::max(entryCap, slot.msg.entries.capacity());
  idCap = std::max(idCap, slot.msg.ids.capacity());
  if (msg.entries.capacity() < entryCap) msg.entries.reserve(entryCap);
  if (msg.ids.capacity() < idCap) msg.ids.reserve(idCap);
  slot.to = to;
  // msg.from is owned by the acting shard (from == the stepping/replying
  // node), so this counter increment is race-free.
  slot.seq = e.sendSeq_[slot.msg.from]++;
}

std::uint64_t ShardedEngine::pendingAt(std::uint32_t parity) const {
  std::uint64_t total = 0;
  for (std::uint32_t w = 0; w < shardCount_; ++w)
    for (std::uint32_t d = 0; d < shardCount_; ++d)
      total += outboxes_[(w * 2 + parity) * shardCount_ + d].count;
  return total;
}

void ShardedEngine::runOneCycle() {
  const std::uint64_t start = cycleStartTick_;
  const std::uint64_t end = start + slotCount_;
  // Windows are at least one tick: lookahead 0 (no latency floor) runs
  // each tick's same-tick request/reply cascade as deliver rounds.
  const std::uint32_t window =
      std::max<std::uint32_t>(timing_.latency.minLatencyTicks(), 1);

  phase_ = Phase::kWorklist;
  pool_.parallelFor(shardCount_, phaseFn_);
  // Coordinator aggregate: which slot offsets have nodes anywhere.
  // (assign() reuses the vector's capacity — no steady-state allocation.)
  offsetOccupied_.assign(slotCount_, 0);
  for (const auto& w : workers_)
    for (std::uint32_t o = 0; o < slotCount_; ++o)
      if (!w.worklist[o].empty()) offsetOccupied_[o] = 1;

  std::uint32_t nextOffset = 0;  // earliest slot offset not yet executed
  while (true) {
    while (nextOffset < slotCount_ && !offsetOccupied_[nextOffset])
      ++nextOffset;
    // Next event time across all shards: the earlier of the next
    // occupied slot and the earliest stored delivery. Stored entries due
    // past the cycle end stay parked — they carry over to a later
    // cycle's windows (in-flight traffic crosses cycle boundaries; the
    // killed-destination check at delivery handles churn in between).
    std::uint64_t nextTime = nextOffset < slotCount_ ? start + nextOffset : end;
    for (const auto& w : workers_)
      nextTime = std::min(nextTime, w.dueQueue.nextDueTickOr(end));
    if (nextTime >= end) break;
    // Safe horizon: everything below min(next event) + lookahead can run
    // without coordination — any send inside the window arrives at
    // dueTick >= sendTick + lookahead >= horizon.
    const std::uint64_t horizon = std::min<std::uint64_t>(nextTime + window, end);
    for (std::uint64_t t = nextTime; t < horizon; ++t) {
      tick_ = t;
      phase_ = Phase::kTick;
      pool_.parallelFor(shardCount_, phaseFn_);
      // Deliver rounds until the tick is quiet: same-tick messages are
      // handled (their replies feed the next round), later-due ones are
      // parked in the destination shards' stores before the next
      // horizon query looks at the due queues.
      while (pendingAt(parity_) > 0) {
        parity_ ^= 1u;  // fresh sends go to the other side
        phase_ = Phase::kDeliver;
        pool_.parallelFor(shardCount_, phaseFn_);
      }
      nextOffset =
          std::max(nextOffset, static_cast<std::uint32_t>(t - start) + 1);
    }
  }
  tick_ = end;
  cycleStartTick_ = end;
  // Cycle boundary: sequential, as under Engine. Membership mutation
  // (churn) is legal only in the controls.
  maintainBuffers();
  closeCycle();
}

void ShardedEngine::maintainBuffers() {
  // The payload high-water across shards (see send()).
  std::size_t entryCap = warmedEntryCap_;
  std::size_t idCap = warmedIdCap_;
  for (const auto& sender : senders_) {
    entryCap = std::max(entryCap, sender.entryCap);
    idCap = std::max(idCap, sender.idCap);
  }
  // Boundary sizing. Per-round bucket and store demand varies from cycle
  // to cycle, so records keep creeping long after warm-up, and a record
  // past a buffer's capacity grows it mid-cycle, inside the parallel hot
  // path. Each buffer therefore tracks the level of its per-cycle peaks
  // (an average over about 8 cycles) and grows here, at the sequential
  // boundary, once its capacity runs short of that level, to want() of
  // the larger of level and peak. Triggering on the level, not on single
  // peaks, keeps the ordinary spread of peaks from growing a warm
  // buffer; a spike past the capacity still grows it in send().
  //   jittered   short below 3x the level, want = 4x + 32. Per-tick
  //              traffic moves with every cycle's timer and latency
  //              draws: the per-cycle record runs about 1.5x the level,
  //              up to twice it in small buckets, and the level must
  //              rise by a third before the next growth.
  //   CycleSync  short below the level + 16, want = 1.25x + 32. Step
  //              batches are steady, so only small buckets need room
  //              beyond their level, and little multiplicative slack is
  //              taken: at 10M nodes tripling every bucket is real
  //              memory.
  const bool jittered = timing_.mode != TimingMode::kCycleSync;
  const auto want = [jittered](double level) {
    return static_cast<std::size_t>((jittered ? 4.0 : 1.25) * level) + 32;
  };
  const auto isShort = [jittered](std::size_t slots, double level) {
    return level > 0 && (jittered ? slots < 3 * level : slots < level + 16);
  };
  const auto smooth = [](double& level, std::size_t peak) {
    level += (static_cast<double>(peak) - level) / 8;
  };
  for (auto& bucket : outboxes_) {
    smooth(bucket.level, bucket.cyclePeak);
    // Trim: release slots of buckets sized by a one-off burst (the star
    // bootstrap funnels every node's first exchanges at one hub, leaving
    // a few buckets provisioned for the whole population), keeping
    // twice what the level asks for. Measured against want(), slack
    // included, steady traffic never trims — and thus never regrows.
    const std::size_t wanted = want(bucket.level);
    const bool excess =
        bucket.slots.size() > 8 && bucket.slots.size() > 4 * wanted;
    bucket.excessCycles = excess ? bucket.excessCycles + 1 : 0;
    if (bucket.excessCycles >= kTrimAfterCycles) {
      const std::size_t target = std::max<std::size_t>(2 * wanted, 8);
      // Keep the first `target` slots (their payload buffers are warm);
      // moving them into a right-sized vector releases the rest.
      std::vector<Pending> kept(
          std::make_move_iterator(bucket.slots.begin()),
          std::make_move_iterator(bucket.slots.begin() + target));
      bucket.slots = std::move(kept);
      bucket.excessCycles = 0;
    }
    if (isShort(bucket.slots.size(), bucket.level)) {
      const std::size_t old = bucket.slots.size();
      bucket.slots.resize(
          want(std::max(bucket.level, static_cast<double>(bucket.cyclePeak))));
      for (std::size_t i = old; i < bucket.slots.size(); ++i) {
        bucket.slots[i].msg.entries.reserve(entryCap);
        bucket.slots[i].msg.ids.reserve(idCap);
      }
    }
    bucket.cyclePeak = 0;
  }
  // Re-warm trigger: a grown high-water leaves every older buffer short,
  // and a store slot minted mid-cycle swapped a cold buffer into an
  // outbox slot (see MessagePool::checkIn). Either way, a short buffer
  // handed to a sender later — maybe hundreds of cycles on, when a rare
  // burst reaches its slot — would allocate then.
  bool rewarm = entryCap != warmedEntryCap_ || idCap != warmedIdCap_;
  for (const auto& w : workers_) rewarm |= w.store.capacity() != w.storeSlots;
  for (std::uint32_t shard = 0; shard < shardCount_; ++shard) {
    Worker& w = workers_[shard];
    // The in-flight store follows the buckets' rule: a pool slot minted
    // at a mid-cycle record allocates (see MessagePool::reserveWarm).
    // Always empty without a latency model.
    const std::size_t peak = w.store.peakInUse();
    w.store.resetPeak();
    smooth(w.storeLevel, peak);
    if (isShort(w.store.capacity(), w.storeLevel))
      w.store.reserveWarm(
          want(std::max(w.storeLevel, static_cast<double>(peak))), entryCap,
          idCap);
    w.storeSlots = w.store.capacity();
    // Bounds, not records: the due queue and the per-tick scratch never
    // hold more refs than the store has slots, and a deliver round
    // gathers at most the read-side bucket slots addressed to the shard.
    // (reserve() is a no-op once capacity suffices.)
    w.dueQueue.reserve(w.storeSlots);
    w.dueScratch.reserve(w.storeSlots);
    for (std::uint32_t parity = 0; parity < 2; ++parity) {
      std::size_t slots = 0;
      for (std::uint32_t src = 0; src < shardCount_; ++src)
        slots += outbox(src, parity, shard).slots.size();
      w.inbox.reserve(slots);
    }
  }
  if (!rewarm) return;
  // Bring every buffer up to the high-water in one sequential sweep:
  // outbox slots, store slots and the workers' two scratch messages. This
  // happens in the first cycles only; afterwards the trigger above is a
  // few comparisons.
  warmedEntryCap_ = entryCap;
  warmedIdCap_ = idCap;
  const auto warm = [&](net::Message& msg) {
    if (msg.entries.capacity() < entryCap) msg.entries.reserve(entryCap);
    if (msg.ids.capacity() < idCap) msg.ids.reserve(idCap);
  };
  for (auto& sender : senders_) {
    // Sync every shard to the global max so growth-time pre-warming of
    // fresh slots (see send()) uses the mature capacity.
    sender.entryCap = entryCap;
    sender.idCap = idCap;
  }
  for (auto& bucket : outboxes_)
    for (auto& slot : bucket.slots) warm(slot.msg);
  for (auto& w : workers_) {
    w.store.rewarm(entryCap, idCap);
    warm(w.ctx.messageScratch_);
    warm(w.ctx.replyScratch_);
  }
}

void ShardedEngine::runPhase(std::size_t shard) {
  const auto s = static_cast<std::uint32_t>(shard);
  switch (phase_) {
    case Phase::kWorklist:
      buildWorklist(s);
      break;
    case Phase::kTick:
      tickPhase(s);
      break;
    case Phase::kDeliver:
      deliverPhase(s);
      break;
  }
}

void ShardedEngine::buildWorklist(std::uint32_t shard) {
  Worker& w = workers_[shard];
  for (auto& bucket : w.worklist) bucket.clear();
  // aliveIds() order is a pure function of the spawn/kill history (see
  // Network), so every shard's worklist — and with it the node-local
  // execution order — is identical across runs and thread counts.
  for (const NodeId node : network_.aliveIds())
    if (node % shardCount_ == shard) w.worklist[slotOf(node)].push_back(node);
}

void ShardedEngine::tickPhase(std::uint32_t shard) {
  Worker& w = workers_[shard];
  // Deliveries before steps within a tick — the same intra-tick priority
  // order as the sequential engine's event queue.
  w.dueScratch.clear();
  w.dueQueue.popDueInto(tick_, w.dueScratch);
  std::sort(w.dueScratch.begin(), w.dueScratch.end(), CanonicalOrder{});
  for (const StoreRef& ref : w.dueScratch) {
    dispatch(w, ref.to, w.store.at(ref.slot));
    w.store.release(ref.slot);
  }
  // This tick's steps. Worklists are rebuilt from aliveIds() each cycle
  // and membership mutates only at cycle boundaries, so every listed
  // node is alive.
  const auto offset = static_cast<std::uint32_t>(tick_ - cycleStartTick_);
  for (const NodeId node : w.worklist[offset]) {
    for (auto* protocol : protocols_) {
      seedEventRng(w.ctx, node);
      protocol->shardStep(node, w.ctx);
    }
  }
}

void ShardedEngine::deliverPhase(std::uint32_t shard) {
  Worker& w = workers_[shard];
  const std::uint32_t readParity = parity_ ^ 1u;
  // Gather everything addressed to this shard. Reading other workers'
  // read-side buckets is safe: they were last written before the barrier
  // that started this phase, and this phase only writes the opposite
  // parity.
  w.inbox.clear();
  for (std::uint32_t src = 0; src < shardCount_; ++src) {
    Bucket& bucket = outbox(src, readParity, shard);
    for (std::size_t i = 0; i < bucket.count; ++i) {
      Pending& p = bucket.slots[i];
      if (p.dueTick > tick_) {
        // A latency draw pushed this arrival past the current tick: park
        // it in the store; a later tick delivers it. (checkIn swaps
        // buffers, leaving the outbox slot warm for reuse.)
        const NodeId from = p.msg.from;
        const net::MessagePool::Slot slot = w.store.checkIn(p.to, p.msg);
        w.dueQueue.push(p.dueTick, StoreRef{p.to, from, p.seq, slot});
      } else {
        w.inbox.push_back({p.to, p.msg.from, p.seq, src,
                           static_cast<std::uint32_t>(i)});
      }
    }
  }
  std::sort(w.inbox.begin(), w.inbox.end(), CanonicalOrder{});
  for (const InRef& ref : w.inbox) {
    const Pending& p = outbox(ref.srcShard, readParity, shard).slots[ref.slot];
    dispatch(w, p.to, p.msg);
  }
  // Reset the consumed read-side buckets (dst-owned here: each bucket is
  // read by exactly one destination shard, and the coordinator's
  // pendingAt() check runs after the barrier). Slots stay allocated.
  for (std::uint32_t src = 0; src < shardCount_; ++src) {
    Bucket& bucket = outbox(src, readParity, shard);
    bucket.cyclePeak = std::max(bucket.cyclePeak, bucket.count);
    bucket.count = 0;
  }
}

void ShardedEngine::dispatch(Worker& w, NodeId to, const net::Message& msg) {
  if (!network_.isAlive(to)) {
    // A stale view entry pointed at a dead node, or the destination died
    // (churn at a cycle boundary) while the message was in flight: the
    // message vanishes — exactly CYCLON's implicit failure detection.
    ++w.droppedDead;
    return;
  }
  seedEventRng(w.ctx, to);
  for (auto* protocol : protocols_)
    if (protocol->shardDeliver(to, msg, w.ctx)) return;
  ++w.droppedUnroutable;
}

std::uint64_t ShardedEngine::messagesSent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sender : senders_) total += sender.sent();
  return total;
}

std::uint64_t ShardedEngine::droppedDead() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker.droppedDead;
  return total;
}

std::uint64_t ShardedEngine::droppedUnroutable() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker.droppedUnroutable;
  return total;
}

std::size_t ShardedEngine::storedInFlight() const noexcept {
  std::size_t total = 0;
  for (const auto& worker : workers_) total += worker.dueQueue.size();
  return total;
}

}  // namespace vs07::sim
