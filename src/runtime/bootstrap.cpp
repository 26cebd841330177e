#include "runtime/bootstrap.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace vs07::runtime {

Bootstrap::Bootstrap(const Config& config, UdpTransport& transport,
                     PeerTable& peers, gossip::Cyclon& cyclon)
    : config_(config),
      transport_(transport),
      peers_(peers),
      cyclon_(cyclon),
      state_(config.isSeed ? State::kJoined : State::kAnnouncing) {
  VS07_EXPECT(config_.isSeed || config_.seedAddr.valid());
  VS07_EXPECT(controlFrameBytes(config_.annexLimit) <= kMaxDatagramBytes);
  transport_.setFrameHandler(this);
}

void Bootstrap::tick(std::uint64_t nowMs) {
  if (state_ != State::kAnnouncing || nowMs < nextAttemptMs_) return;
  if (attempts_ >= config_.maxAttempts) {
    state_ = State::kFailed;
    return;
  }
  sendHello(nowMs);
}

std::uint64_t Bootstrap::nextDeadlineMs() const noexcept {
  return state_ == State::kAnnouncing ? nextAttemptMs_ : UINT64_MAX;
}

void Bootstrap::sendHello(std::uint64_t nowMs) {
  transport_.sendControlFrame(FrameKind::kHello, config_.seedAddr, {});
  ++attempts_;
  const std::uint64_t backoff =
      std::min<std::uint64_t>(config_.retryCapMs,
                              static_cast<std::uint64_t>(config_.retryBaseMs)
                                  << std::min<std::uint32_t>(attempts_, 16));
  nextAttemptMs_ = nowMs + backoff;
}

void Bootstrap::onFrame(const FrameHeader& header, const PeerAddress& from,
                        std::span<const AddressEntry> annex) {
  switch (header.kind) {
    case FrameKind::kHello: {
      // Answer only once settled in: an announcing node has no view worth
      // sharing, and two lost processes would WELCOME each other into
      // empty overlays.
      if (state_ != State::kJoined) return;
      if (header.sender >= peers_.nodeCount() || header.sender == config_.selfId)
        return;
      cyclon_.admit(config_.selfId, header.sender);
      annexScratch_.clear();
      peers_.fillKnown(config_.annexLimit, header.sender, annexScratch_);
      transport_.sendControlFrame(FrameKind::kWelcome, from, annexScratch_);
      ++welcomed_;
      return;
    }
    case FrameKind::kWelcome: {
      if (state_ != State::kAnnouncing) return;  // duplicate from a retry
      if (header.sender >= peers_.nodeCount()) return;
      // The transport already learned every annex address; here the annex
      // (plus the welcoming node itself) becomes the initial view.
      viewScratch_.clear();
      viewScratch_.push_back(header.sender);
      for (const auto& entry : annex)
        if (entry.node < peers_.nodeCount()) viewScratch_.push_back(entry.node);
      cyclon_.seedView(config_.selfId, viewScratch_);
      state_ = State::kJoined;
      return;
    }
    case FrameKind::kGossip:
      return;  // routed to the sink by the transport, never here
  }
}

}  // namespace vs07::runtime
