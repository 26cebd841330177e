#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/expect.hpp"

namespace vs07::runtime {

namespace {

sockaddr_in toSockaddr(const PeerAddress& addr) {
  sockaddr_in out{};
  out.sin_family = AF_INET;
  out.sin_addr.s_addr = htonl(addr.ipv4);
  out.sin_port = htons(addr.port);
  return out;
}

bool wouldBlock(int error) {
  return error == EAGAIN || error == EWOULDBLOCK || error == ENOBUFS;
}

/// Binds a nonblocking UDP socket to `requestedPort` on every interface
/// (0 = ephemeral); returns its fd and the port it got.
int bindUdp(std::uint16_t requestedPort, std::uint16_t& boundPort) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(udp) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(requestedPort);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind(udp) failed: " + reason);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("getsockname failed");
  }
  boundPort = ntohs(addr.sin_port);
  return fd;
}

/// True when every node id `msg` names lies inside the population: the
/// protocols index per-node state by them, so one id beyond it would
/// throw inside the router and end the process.
bool namesOnlyPopulation(const net::Message& msg, std::uint32_t nodeCount) {
  if (msg.from >= nodeCount) return false;
  for (const auto& entry : msg.entries)
    if (entry.node >= nodeCount) return false;
  return true;
}

}  // namespace

UdpTransport::UdpTransport(const Config& config, PeerTable& peers,
                           net::DeliverySink& sink)
    : selfId_(config.selfId),
      maxQueuedSends_(config.maxQueuedSends),
      peers_(peers),
      sink_(sink),
      recvBuf_(kMaxDatagramBytes + 1) {
  udpFd_ = bindUdp(config.port, port_);
}

UdpTransport::~UdpTransport() { ::close(udpFd_); }

void UdpTransport::encodeGossip(const net::Message& msg) {
  annexScratch_.clear();
  for (const auto& entry : msg.entries) {
    if (entry.node >= peers_.nodeCount()) continue;
    const PeerAddress& addr = peers_.lookup(entry.node);
    if (addr.valid()) annexScratch_.push_back({entry.node, addr});
  }
  encodeFrame({FrameKind::kGossip, selfId_, port_}, &msg, annexScratch_,
              sendBuf_);
}

void UdpTransport::send(NodeId to, net::Message&& msg) {
  countSend();
  if (to >= peers_.nodeCount() || !peers_.knows(to)) {
    ++droppedNoAddress_;
    return;
  }
  transmit(to, peers_.lookup(to), msg);
}

void UdpTransport::transmit(NodeId to, const PeerAddress& addr,
                            net::Message& msg) {
  encodeGossip(msg);
  switch (sendDatagram(addr)) {
    case SendOutcome::kSent:
      ++datagramsSent_;
      return;
    case SendOutcome::kFailed:
      ++droppedSendError_;
      return;
    case SendOutcome::kBlocked:
      break;
  }
  // Kernel send buffer full: park the payload in the pool and re-encode
  // once the socket drains. Beyond the cap the frame is dropped like any
  // lost datagram.
  if (retryQueue_.size() >= maxQueuedSends_) {
    ++droppedBacklog_;
    return;
  }
  retryQueue_.push_back(retryPool_.checkIn(to, msg));
}

UdpTransport::SendOutcome UdpTransport::sendDatagram(const PeerAddress& addr) {
  VS07_EXPECT(sendBuf_.size() <= kMaxDatagramBytes);
  const sockaddr_in dest = toSockaddr(addr);
  const auto sent =
      ::sendto(udpFd_, sendBuf_.data(), sendBuf_.size(), 0,
               reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  if (sent >= 0) return SendOutcome::kSent;
  if (wouldBlock(errno)) return SendOutcome::kBlocked;
  // Any other error (unreachable, refused) is a lost datagram: the
  // protocols treat silence as failure, but callers must not count the
  // frame as sent — it never left this host.
  return SendOutcome::kFailed;
}

void UdpTransport::sendControlFrame(FrameKind kind, const PeerAddress& to,
                                    std::span<const AddressEntry> annex) {
  VS07_EXPECT(kind != FrameKind::kGossip);
  if (!to.valid()) {
    ++droppedNoAddress_;
    return;
  }
  encodeFrame({kind, selfId_, port_}, nullptr, annex, sendBuf_);
  switch (sendDatagram(to)) {
    case SendOutcome::kSent:
      ++datagramsSent_;
      break;
    case SendOutcome::kFailed:
      ++droppedSendError_;
      break;
    case SendOutcome::kBlocked:
      // Bootstrap frames are never parked: the ladder retries them.
      break;
  }
}

void UdpTransport::flushRetryQueue() {
  std::size_t flushed = 0;
  for (; flushed < retryQueue_.size(); ++flushed) {
    const auto slot = retryQueue_[flushed];
    const NodeId to = retryPool_.destination(slot);
    const PeerAddress& addr = peers_.lookup(to);
    if (addr.valid()) {
      // The annex may have grown since the frame was parked. Frames are
      // sized with a full annex (gossipFrameBytes), so it still fits.
      encodeGossip(retryPool_.at(slot));
      const SendOutcome outcome = sendDatagram(addr);
      if (outcome == SendOutcome::kBlocked) break;  // still: keep the tail
      if (outcome == SendOutcome::kFailed) {
        ++droppedSendError_;  // hard loss: release the slot and move on
      } else {
        ++datagramsSent_;
        ++retriedSends_;
      }
    }
    retryPool_.release(slot);
  }
  retryQueue_.erase(retryQueue_.begin(),
                    retryQueue_.begin() + static_cast<std::ptrdiff_t>(flushed));
}

void UdpTransport::receiveDatagrams() {
  for (;;) {
    sockaddr_in from{};
    socklen_t fromLen = sizeof(from);
    const auto n =
        ::recvfrom(udpFd_, recvBuf_.data(), recvBuf_.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), &fromLen);
    if (n < 0) return;  // EAGAIN or a transient error: nothing more now
    ++datagramsReceived_;
    // A datagram that fills the buffer is above the bound (the kernel
    // truncated it): no sender of this runtime builds one.
    if (static_cast<std::size_t>(n) > kMaxDatagramBytes) {
      ++droppedMalformed_;
      continue;
    }
    handleFrame({recvBuf_.data(), static_cast<std::size_t>(n)},
                ntohl(from.sin_addr.s_addr));
  }
}

void UdpTransport::handleFrame(std::span<const std::uint8_t> bytes,
                               std::uint32_t fromIp) {
  DecodedFrame frame;
  try {
    frame = decodeFrame(bytes, recvMsg_, recvAnnex_);
  } catch (const net::CodecError&) {
    ++droppedMalformed_;
    return;
  }
  const FrameHeader& header = frame.header;
  // Every frame teaches the sender's address; the annex teaches third
  // parties, as hints that never override a self-taught address. Annex
  // entries naming this node are dropped (no peer knows our address
  // better than we do), and entries naming unknown-population ids are
  // hostile or stale input and ignored.
  if (header.sender < peers_.nodeCount() && header.senderPort != 0)
    peers_.learn(header.sender, {fromIp, header.senderPort},
                 AddressSource::kSelf);
  std::erase_if(recvAnnex_,
                [this](const AddressEntry& e) { return e.node == selfId_; });
  for (const auto& entry : recvAnnex_)
    if (entry.node < peers_.nodeCount())
      peers_.learn(entry.node, entry.addr, AddressSource::kHint);

  if (header.kind == FrameKind::kGossip) {
    if (!frame.hasPayload ||
        !namesOnlyPopulation(recvMsg_, peers_.nodeCount())) {
      ++droppedMalformed_;
      return;
    }
    ++dispatched_;
    // The router reads by const reference, so the scratch keeps its
    // buffers; decodeFrame resets it on the next frame.
    sink_.deliver(selfId_, std::move(recvMsg_));
    return;
  }
  if (frameHandler_ != nullptr) {
    ++dispatched_;
    frameHandler_->onFrame(header, {fromIp, header.senderPort}, recvAnnex_);
  }
}

void UdpTransport::addPollFds(std::vector<::pollfd>& fds) const {
  fds.push_back({udpFd_,
                 static_cast<short>(POLLIN |
                                    (retryQueue_.empty() ? 0 : POLLOUT)),
                 0});
}

std::uint32_t UdpTransport::service() {
  dispatched_ = 0;
  receiveDatagrams();
  flushRetryQueue();
  return dispatched_;
}

std::uint32_t UdpTransport::pump(int timeoutMs) {
  std::vector<::pollfd> fds;
  addPollFds(fds);
  ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
  return service();
}

}  // namespace vs07::runtime
