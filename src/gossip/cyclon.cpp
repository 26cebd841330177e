#include "gossip/cyclon.hpp"

#include <utility>

namespace vs07::gossip {

Cyclon::Cyclon(sim::Network& network, net::Transport& transport,
               sim::MessageRouter& router, Params params, std::uint64_t seed)
    : params_(params), shuffles_(1, 0), own_(0, transport, seed) {
  VS07_EXPECT(params_.viewLength > 0);
  VS07_EXPECT(params_.shuffleLength > 0);
  VS07_EXPECT(params_.shuffleLength <= params_.viewLength);
  VS07_EXPECT(params_.shuffleLength <= 255);  // pendingCount_ is a byte
  const auto deliver = [this](NodeId to, const net::Message& m) {
    shardDeliver(to, m, own_);
  };
  router.route(net::MessageKind::CyclonRequest, deliver);
  router.route(net::MessageKind::CyclonReply, deliver);
  network.addObserver(*this);  // sizes views_ via onSpawn callbacks
}

PeerDescriptor Cyclon::selfDescriptor(NodeId node) const {
  return PeerDescriptor{node, 0};
}

void Cyclon::onReserve(NodeId count) {
  views_.reserve(count);
  pendingSent_.reserve(std::size_t{count} * params_.shuffleLength);
  pendingCount_.reserve(count);
}

void Cyclon::onSpawn(NodeId node) {
  if (node >= views_.size()) {
    views_.resize(node + 1);
    pendingSent_.resize(std::size_t{node + 1} * params_.shuffleLength);
    pendingCount_.resize(node + 1, 0);
  }
  views_[node] = View(node, params_.viewLength);
}

void Cyclon::onKill(NodeId node) {
  // Keep the dead node's view allocated but inert; other nodes' links to
  // it stay dangling on purpose (the paper's dead-link semantics).
  views_[node].clear();
  pendingCount_[node] = 0;
}

void Cyclon::onJoin(NodeId node, NodeId introducer) {
  VS07_EXPECT(node != introducer);
  View& v = views_[node];
  v.clear();
  v.add(selfDescriptor(introducer));
}

void Cyclon::seedView(NodeId node, std::span<const NodeId> peers) {
  View& v = views_[node];
  v.clear();
  for (const NodeId peer : peers) {
    if (v.full()) break;
    if (peer == node || v.contains(peer)) continue;
    v.add(selfDescriptor(peer));
  }
}

void Cyclon::admit(NodeId self, NodeId peer) {
  VS07_EXPECT(peer != self);
  View& v = views_[self];
  if (v.contains(peer)) return;  // known already; its age keeps counting
  if (v.full()) v.removeAt(v.oldestIndex());
  v.add(selfDescriptor(peer));
}

const View& Cyclon::view(NodeId node) const {
  VS07_EXPECT(node < views_.size());
  return views_[node];
}

void Cyclon::step(NodeId self) { shardStep(self, own_); }

void Cyclon::shardStep(NodeId self, sim::ShardContext& ctx) {
  View& v = views_[self];
  v.incrementAges();
  if (v.empty()) return;  // isolated node: nothing to shuffle with

  // 2. Oldest neighbour becomes the exchange partner and leaves the view.
  const std::size_t qIndex = v.oldestIndex();
  const NodeId q = v.at(qIndex).node;
  v.removeAt(qIndex);

  // 3. Random subset of g-1 other entries, plus a fresh self-descriptor.
  // The sample is staged in the pool scratch — randomEntriesInto copies
  // the whole view before the partial shuffle, and a message buffer that
  // briefly held viewLength entries keeps that capacity in whichever
  // outbox slot it circulates into (a per-slot cost at scale).
  net::Message& request = ctx.messageScratch();
  request.reset();
  auto& sample = ctx.poolScratch();
  v.randomEntriesInto(params_.shuffleLength - 1, /*exclude=*/q, ctx.rng(),
                      sample);
  request.entries.assign(sample.begin(), sample.end());
  NodeId* sent = &pendingSent_[std::size_t{self} * params_.shuffleLength];
  std::uint8_t sentCount = 0;
  for (const auto& e : request.entries) sent[sentCount++] = e.node;
  pendingCount_[self] = sentCount;
  request.entries.push_back(selfDescriptor(self));

  request.kind = net::MessageKind::CyclonRequest;
  request.from = self;
  ++shuffles_[ctx.shard()];
  ctx.transport().send(q, std::move(request));
  // If q is dead or the message is lost, no reply ever comes back:
  // the oldest entry is already gone and pendingSent_ is simply
  // overwritten by the next shuffle. That *is* CYCLON's failure handling.
}

void Cyclon::handleRequest(NodeId self, const net::Message& msg,
                           sim::ShardContext& ctx) {
  View& v = views_[self];
  // Reply with up to g random entries (excluding any entry for the
  // initiator: it would be discarded at the other end anyway). Staged in
  // scratch for the same slot-capacity reason as shardStep.
  net::Message& reply = ctx.replyScratch();
  reply.reset();
  auto& sample = ctx.poolScratch();
  v.randomEntriesInto(params_.shuffleLength, /*exclude=*/msg.from, ctx.rng(),
                      sample);
  reply.entries.assign(sample.begin(), sample.end());
  auto& sentIds = ctx.idScratch();
  sentIds.clear();
  for (const auto& e : reply.entries) sentIds.push_back(e.node);

  reply.kind = net::MessageKind::CyclonReply;
  reply.from = self;
  ctx.transport().send(msg.from, std::move(reply));

  std::size_t live = sentIds.size();
  merge(self, msg.entries, sentIds, live);
}

void Cyclon::onShardedAttach(std::uint32_t shardCount) {
  if (shuffles_.size() < shardCount) shuffles_.resize(shardCount, 0);
}

bool Cyclon::shardDeliver(NodeId to, const net::Message& msg,
                          sim::ShardContext& ctx) {
  switch (msg.kind) {
    case net::MessageKind::CyclonRequest:
      handleRequest(to, msg, ctx);
      return true;
    case net::MessageKind::CyclonReply:
      handleReply(to, msg);
      return true;
    default:
      return false;
  }
}

std::uint64_t Cyclon::shufflesInitiated() const noexcept {
  std::uint64_t total = 0;
  for (const auto count : shuffles_) total += count;
  return total;
}

void Cyclon::handleReply(NodeId self, const net::Message& msg) {
  std::size_t live = pendingCount_[self];
  merge(self, msg.entries,
        {&pendingSent_[std::size_t{self} * params_.shuffleLength],
         params_.shuffleLength},
        live);
  pendingCount_[self] = 0;
}

void Cyclon::merge(NodeId self, std::span<const PeerDescriptor> received,
                   std::span<const NodeId> sentIds, std::size_t& liveCount) {
  View& v = views_[self];
  for (const auto& entry : received) {
    if (entry.node == self) continue;        // descriptor of ourselves
    if (v.contains(entry.node)) continue;    // duplicate: keep existing
    if (!v.full()) {
      v.add(entry);
      continue;
    }
    // Replace one of the entries we sent out, if any is still present.
    bool placed = false;
    while (liveCount > 0 && !placed) {
      const NodeId victim = sentIds[--liveCount];
      if (v.removeNode(victim)) {
        v.add(entry);
        placed = true;
      }
    }
    // View full and nothing left to sacrifice: drop the entry.
  }
}

}  // namespace vs07::gossip
