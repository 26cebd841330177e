#include "gossip/vicinity.hpp"

#include <algorithm>
#include <utility>

namespace vs07::gossip {

Vicinity::Vicinity(sim::Network& network, net::Transport& transport,
                   sim::MessageRouter& router, const Cyclon& cyclon,
                   Params params, std::uint64_t seed, ProfileFn profile)
    : cyclon_(cyclon),
      params_(params),
      profile_(std::move(profile)),
      own_(0, transport, seed) {
  VS07_EXPECT(params_.viewLength > 0);
  VS07_EXPECT(params_.exchangeLength > 0);
  // Sized for both bands an exchange forms: the merged view and the offer.
  const std::size_t budget =
      std::max(params_.viewLength, params_.exchangeLength - 1);
  bands_.emplace_back((budget + 1) / 2, budget / 2);
  if (!profile_)
    profile_ = [&network](NodeId n) { return network.seqId(n); };
  const auto deliver = [this](NodeId to, const net::Message& m) {
    shardDeliver(to, m, own_);
  };
  router.route(net::MessageKind::VicinityRequest, deliver, params_.channel);
  router.route(net::MessageKind::VicinityReply, deliver, params_.channel);
  network.addObserver(*this);
}

PeerDescriptor Vicinity::selfDescriptor(NodeId node) const {
  return PeerDescriptor{node, 0};
}

void Vicinity::onReserve(NodeId count) {
  profiles_.reserve(count);
  views_.reserve(count);
  pendingTarget_.reserve(count);
  bans_.reserve(count);
  stepCount_.reserve(count);
}

void Vicinity::onSpawn(NodeId node) {
  if (node >= views_.size()) {
    profiles_.resize(node + 1);
    views_.resize(node + 1);
    pendingTarget_.resize(node + 1, kNoNode);
    bans_.resize(node + 1);
    stepCount_.resize(node + 1, 0);
  }
  profiles_[node] = profile_(node);
  views_[node] = View(node, params_.viewLength);
  pendingTarget_[node] = kNoNode;
  bans_[node].clear();
}

void Vicinity::onSeqIdChange(NodeId node) {
  profiles_[node] = profile_(node);
}

void Vicinity::onKill(NodeId node) {
  views_[node].clear();
  pendingTarget_[node] = kNoNode;
  bans_[node].clear();
}

void Vicinity::onJoin(NodeId node, NodeId /*introducer*/) {
  // Joiners start cold: the proximity view fills from CYCLON candidates
  // over the next cycles (the warm-up the paper discusses for Fig. 13).
  views_[node].clear();
  pendingTarget_[node] = kNoNode;
  bans_[node].clear();
}

bool Vicinity::isBanned(NodeId self, NodeId peer) const {
  for (const auto& b : bans_[self])
    if (b.node == peer && b.expiresAtStep > stepCount_[self]) return true;
  return false;
}

void Vicinity::ban(NodeId self, NodeId peer) {
  auto& list = bans_[self];
  // Drop expired entries while we are here; the list stays tiny.
  std::erase_if(list, [this, self](const Ban& b) {
    return b.expiresAtStep <= stepCount_[self];
  });
  list.push_back({peer, stepCount_[self] + params_.failureBanSteps});
}

const View& Vicinity::view(NodeId node) const {
  VS07_EXPECT(node < views_.size());
  return views_[node];
}

RingNeighbors Vicinity::ringNeighbors(NodeId node) const {
  const View& v = view(node);
  const SequenceId self = profileOf(node);
  RingNeighbors result;
  std::uint64_t bestSucc = 0;
  std::uint64_t bestPred = 0;
  for (const auto& e : v.entries()) {
    const SequenceId profile = profileOf(e.node);
    const auto cw = clockwiseDistance(self, profile);
    const auto ccw = clockwiseDistance(profile, self);
    if (result.successor == kNoNode || cw < bestSucc) {
      bestSucc = cw;
      result.successor = e.node;
    }
    if (result.predecessor == kNoNode || ccw < bestPred) {
      bestPred = ccw;
      result.predecessor = e.node;
    }
  }
  return result;
}

std::vector<NodeId> Vicinity::ringBand(NodeId node,
                                       std::uint32_t width) const {
  VS07_EXPECT(width >= 1);
  RingBand band;
  const auto entries = view(node).entries();
  band.select(profileOf(node), entries, profiles_, width, width,
              entries.size());
  const auto succ = band.successors();
  const auto pred = band.predecessors();

  std::vector<NodeId> result;
  result.reserve(2 * width);
  for (const RingKey& key : succ) result.push_back(key.node);
  // A view of fewer than 2·width entries puts some on both sides; those
  // with a key up to the last successor's are listed there already.
  for (const RingKey& key : pred) {
    if (!(succ.back() < key)) break;
    result.push_back(key.node);
  }
  return result;
}

void Vicinity::step(NodeId self) { shardStep(self, own_); }

void Vicinity::shardStep(NodeId self, sim::ShardContext& ctx) {
  View& v = views_[self];
  ++stepCount_[self];

  // Timeout-based failure detection: if the previous exchange never got a
  // reply, the target is unreachable — drop it (and refuse re-admission
  // for a while) so the ring can re-close around failures once gossip
  // resumes (§7.2's "self-healing").
  if (pendingTarget_[self] != kNoNode) {
    v.removeNode(pendingTarget_[self]);
    ban(self, pendingTarget_[self]);
    pendingTarget_[self] = kNoNode;
  }

  v.incrementAges();

  // Partner selection: alternate between exploiting the proximity view
  // (oldest entry, keeps close neighbourhoods fresh) and exploring via a
  // random CYCLON peer (feeds fresh candidates; lets joiners bootstrap).
  Rng& rng = ctx.rng();
  NodeId q = kNoNode;
  const View& randomLayer = cyclon_.view(self);
  const bool exploit = !v.empty() && (randomLayer.empty() || rng.chance(0.5));
  if (exploit) {
    q = v.at(v.oldestIndex()).node;
  } else if (!randomLayer.empty()) {
    q = randomLayer.at(rng.below(randomLayer.size())).node;
  }
  if (q == kNoNode) return;  // no peers at all

  net::Message& request = ctx.messageScratch();
  request.reset();
  request.kind = net::MessageKind::VicinityRequest;
  request.channel = params_.channel;
  request.from = self;
  offerInto(self, q, ctx.poolScratch(), bands_[ctx.shard()], request.entries);
  pendingTarget_[self] = q;
  ctx.transport().send(q, std::move(request));
}

void Vicinity::offerInto(NodeId self, NodeId target,
                         std::vector<PeerDescriptor>& pool, RingBand& band,
                         std::vector<PeerDescriptor>& out) const {
  // Candidates are pooled in `pool` (a long-lived scratch) and only the
  // trimmed band is copied into `out`. Message buffers circulate through
  // the sharded engine's outbox slots, so their high-water capacity is a
  // per-slot memory cost at scale: keeping the pre-trim pool (both view
  // lengths' worth of candidates) out of the message caps every slot at
  // exchangeLength entries instead of ~4x that.
  pool.clear();
  std::uint64_t ownBits = 0;
  for (const auto& e : views_[self].entries()) {
    if (e.node == target) continue;
    pool.push_back(e);
    ownBits |= nodeBit(e.node);
  }
  // Both views are duplicate-free: random-layer entries need checking
  // against the proximity part only.
  const std::size_t own = pool.size();
  for (const auto& e : cyclon_.view(self).entries())
    if (e.node != target) poolAdmit(pool, own, ownBits, e);
  out.clear();
  emitRingBand(profileOf(target), pool, profiles_, own,
               params_.exchangeLength - 1, band,
               [&out](const PeerDescriptor& e) { out.push_back(e); });
  // Our own fresh descriptor always travels along: the target must learn
  // about us to ever point a d-link our way.
  out.push_back(selfDescriptor(self));
}

void Vicinity::handleRequest(NodeId self, const net::Message& msg,
                             sim::ShardContext& ctx) {
  net::Message& reply = ctx.replyScratch();
  reply.reset();
  reply.kind = net::MessageKind::VicinityReply;
  reply.channel = params_.channel;
  reply.from = self;
  RingBand& band = bands_[ctx.shard()];
  offerInto(self, msg.from, ctx.poolScratch(), band, reply.entries);
  ctx.transport().send(msg.from, std::move(reply));

  mergeByProximity(self, msg.entries, ctx.poolScratch(), band);
}

void Vicinity::handleReply(NodeId self, const net::Message& msg,
                           sim::ShardContext& ctx) {
  pendingTarget_[self] = kNoNode;  // partner is alive
  mergeByProximity(self, msg.entries, ctx.poolScratch(),
                   bands_[ctx.shard()]);
}

void Vicinity::onShardedAttach(std::uint32_t shardCount) {
  // Copy the prototype first: resize may reallocate under a reference.
  if (bands_.size() < shardCount)
    bands_.resize(shardCount, RingBand(bands_.front()));
}

bool Vicinity::shardDeliver(NodeId to, const net::Message& msg,
                            sim::ShardContext& ctx) {
  if (msg.channel != params_.channel) return false;
  switch (msg.kind) {
    case net::MessageKind::VicinityRequest:
      handleRequest(to, msg, ctx);
      return true;
    case net::MessageKind::VicinityReply:
      handleReply(to, msg, ctx);
      return true;
    default:
      return false;
  }
}

void Vicinity::mergeByProximity(NodeId self,
                                std::span<const PeerDescriptor> incoming,
                                std::vector<PeerDescriptor>& pool,
                                RingBand& band) {
  View& v = views_[self];
  pool.clear();
  std::uint64_t bits = 0;
  for (const auto& e : v.entries()) {
    pool.push_back(e);
    bits |= nodeBit(e.node);
  }
  const std::size_t viewed = pool.size();
  // The view is duplicate-free; an offer need not be (it may name a peer
  // the view holds, and a malformed one may repeat itself), so each
  // incoming entry is checked against everything pooled before it.
  for (const auto& e : incoming)
    if (e.node != self && !isBanned(self, e.node) &&
        poolAdmit(pool, pool.size(), bits, e))
      bits |= nodeBit(e.node);

  v.clear();
  emitRingBand(profileOf(self), pool, profiles_, viewed, params_.viewLength,
               band, [&v](const PeerDescriptor& e) { v.add(e); });
}

}  // namespace vs07::gossip
