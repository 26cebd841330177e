#include "sim/network.hpp"

namespace vs07::sim {

Network::Network(std::uint32_t initialSize, std::uint64_t seed)
    : rng_(seed), initialSize_(initialSize), initialSurvivors_(initialSize) {
  VS07_EXPECT(initialSize > 0);
  alive_.reserve(initialSize);
  seqIds_.reserve(initialSize);
  joinCycle_.reserve(initialSize);
  aliveIds_.reserve(initialSize);
  alivePos_.reserve(initialSize);
  for (std::uint32_t i = 0; i < initialSize; ++i) spawn(/*atCycle=*/0);
}

NodeId Network::randomAlive(Rng& rng) const {
  VS07_EXPECT(!aliveIds_.empty());
  return aliveIds_[rng.below(aliveIds_.size())];
}

void Network::setSeqId(NodeId node, SequenceId id) {
  VS07_EXPECT(node < seqIds_.size());
  seqIds_[node] = id;
  for (auto* obs : observers_) obs->onSeqIdChange(node);
}

NodeId Network::spawn(std::uint64_t atCycle) {
  const auto id = static_cast<NodeId>(alive_.size());
  alive_.push_back(1);
  seqIds_.push_back(rng_());
  joinCycle_.push_back(atCycle);
  alivePos_.push_back(static_cast<std::uint32_t>(aliveIds_.size()));
  aliveIds_.push_back(id);
  for (auto* obs : observers_) obs->onSpawn(id);
  return id;
}

void Network::kill(NodeId node) {
  VS07_EXPECT(node < alive_.size());
  VS07_EXPECT(alive_[node] != 0);
  alive_[node] = 0;
  // O(1) removal from the alive list.
  const std::uint32_t pos = alivePos_[node];
  const NodeId last = aliveIds_.back();
  aliveIds_[pos] = last;
  alivePos_[last] = pos;
  aliveIds_.pop_back();
  alivePos_[node] = kNoNode;
  if (node < initialSize_) --initialSurvivors_;
  for (auto* obs : observers_) obs->onKill(node);
}

void Network::addObserver(MembershipObserver& observer) {
  observers_.push_back(&observer);
  observer.onReserve(totalCreated());
  for (NodeId id = 0; id < totalCreated(); ++id)
    observer.onSpawn(id);  // announce the existing id space
}

void Network::removeObserver(MembershipObserver& observer) {
  std::erase(observers_, &observer);
}

}  // namespace vs07::sim
