#include "runtime/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
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

/// Fallback streams above this are corrupt input, not big frames: the
/// largest legitimate frame is payload cap + header + full annex.
constexpr std::uint32_t kMaxTcpFrame =
    kMaxFramePayload + static_cast<std::uint32_t>(kFrameHeaderBytes) + 2 +
    10 * kMaxAnnexEntries;

/// Simultaneously open fallback connections per direction; beyond this,
/// new ones are refused (the sender retries nothing — large frames are
/// as droppable as datagrams).
constexpr std::size_t kMaxTcpConns = 128;

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

void closeIfOpen(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

int openNonblockSocket(int type) {
  return ::socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

/// Binds a UDP socket and a TCP listener to one shared port number.
/// With port 0, retries fresh ephemeral UDP ports until the TCP side of
/// the same number is free too (collisions are rare but real).
void bindPair(std::uint16_t requestedPort, int& udpFd, int& tcpFd,
              std::uint16_t& boundPort) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    udpFd = openNonblockSocket(SOCK_DGRAM);
    if (udpFd < 0) throw std::runtime_error("socket(udp) failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(requestedPort);
    if (::bind(udpFd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      closeIfOpen(udpFd);
      throw std::runtime_error("bind(udp) failed: " +
                               std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(udpFd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      closeIfOpen(udpFd);
      throw std::runtime_error("getsockname failed");
    }
    boundPort = ntohs(addr.sin_port);

    tcpFd = openNonblockSocket(SOCK_STREAM);
    if (tcpFd < 0) {
      closeIfOpen(udpFd);
      throw std::runtime_error("socket(tcp) failed");
    }
    const int one = 1;
    ::setsockopt(tcpFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in tcpAddr{};
    tcpAddr.sin_family = AF_INET;
    tcpAddr.sin_addr.s_addr = htonl(INADDR_ANY);
    tcpAddr.sin_port = htons(boundPort);
    if (::bind(tcpFd, reinterpret_cast<sockaddr*>(&tcpAddr),
               sizeof(tcpAddr)) == 0 &&
        ::listen(tcpFd, 16) == 0)
      return;
    // TCP side of this number is taken: only worth retrying when we get
    // to pick a fresh number.
    closeIfOpen(udpFd);
    closeIfOpen(tcpFd);
    if (requestedPort != 0)
      throw std::runtime_error("bind(tcp) failed on port " +
                               std::to_string(boundPort));
  }
  throw std::runtime_error("no shared udp+tcp port found");
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
      mtu_(config.mtuBytes),
      maxQueuedSends_(config.maxQueuedSends),
      peers_(peers),
      sink_(sink) {
  VS07_EXPECT(mtu_ >= 128);
  bindPair(config.port, udpFd_, tcpFd_, port_);
  recvBuf_.resize(64 * 1024);
}

UdpTransport::~UdpTransport() {
  for (auto& conn : tcpOut_) closeIfOpen(conn.fd);
  for (auto& conn : tcpIn_) closeIfOpen(conn.fd);
  closeIfOpen(udpFd_);
  closeIfOpen(tcpFd_);
}

void UdpTransport::buildAnnex(const net::Message& msg) {
  annexScratch_.clear();
  for (const auto& entry : msg.entries) {
    if (annexScratch_.size() >= kMaxAnnexEntries) break;
    if (entry.node >= peers_.nodeCount()) continue;
    const PeerAddress& addr = peers_.lookup(entry.node);
    if (addr.valid()) annexScratch_.push_back({entry.node, addr});
  }
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
  buildAnnex(msg);
  encodeFrame({FrameKind::kGossip, selfId_, port_}, &msg, annexScratch_,
              sendBuf_);
  if (sendBuf_.size() > mtu_) {
    startFallback(addr);
    return;
  }
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

void UdpTransport::startFallback(const PeerAddress& addr) {
  if (tcpOut_.size() >= kMaxTcpConns) {
    ++droppedBacklog_;
    return;
  }
  const int fd = openNonblockSocket(SOCK_STREAM);
  if (fd < 0) {
    ++droppedSendError_;  // no socket, no frame: count the loss
    return;
  }
  const sockaddr_in dest = toSockaddr(addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&dest), sizeof(dest)) !=
          0 &&
      errno != EINPROGRESS) {
    ++droppedSendError_;
    ::close(fd);
    return;
  }
  TcpOut conn;
  conn.fd = fd;
  const auto frameLen = static_cast<std::uint32_t>(sendBuf_.size());
  conn.bytes.reserve(4 + sendBuf_.size());
  for (int i = 0; i < 4; ++i)
    conn.bytes.push_back(static_cast<std::uint8_t>(frameLen >> (8 * i)));
  conn.bytes.insert(conn.bytes.end(), sendBuf_.begin(), sendBuf_.end());
  tcpOut_.push_back(std::move(conn));
}

void UdpTransport::flushRetryQueue() {
  std::size_t flushed = 0;
  for (; flushed < retryQueue_.size(); ++flushed) {
    const auto slot = retryQueue_[flushed];
    const NodeId to = retryPool_.destination(slot);
    const PeerAddress& addr = peers_.lookup(to);
    if (addr.valid()) {
      net::Message& msg = retryPool_.at(slot);
      buildAnnex(msg);
      encodeFrame({FrameKind::kGossip, selfId_, port_}, &msg, annexScratch_,
                  sendBuf_);
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

void UdpTransport::flushFallbacks() {
  for (std::size_t i = 0; i < tcpOut_.size();) {
    TcpOut& conn = tcpOut_[i];
    bool done = false;
    bool dead = false;
    while (conn.written < conn.bytes.size()) {
      const auto n = ::send(conn.fd, conn.bytes.data() + conn.written,
                            conn.bytes.size() - conn.written, MSG_NOSIGNAL);
      if (n > 0) {
        conn.written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && wouldBlock(errno)) break;
      dead = true;  // refused/reset: the frame is lost, like a datagram
      break;
    }
    if (conn.written >= conn.bytes.size()) {
      done = true;
      ++fallbackSent_;
    }
    if (done || dead) {
      closeIfOpen(conn.fd);
      conn = std::move(tcpOut_.back());
      tcpOut_.pop_back();
    } else {
      ++i;
    }
  }
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
    handleFrame({recvBuf_.data(), static_cast<std::size_t>(n)},
                ntohl(from.sin_addr.s_addr));
  }
}

void UdpTransport::acceptFallbacks() {
  for (;;) {
    sockaddr_in from{};
    socklen_t fromLen = sizeof(from);
    const int fd = ::accept4(tcpFd_, reinterpret_cast<sockaddr*>(&from),
                             &fromLen, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (tcpIn_.size() >= kMaxTcpConns) {
      ::close(fd);
      continue;
    }
    TcpIn conn;
    conn.fd = fd;
    conn.bytes.reserve(4096);
    tcpIn_.push_back(std::move(conn));
  }
}

void UdpTransport::readFallbacks() {
  std::uint8_t chunk[16 * 1024];
  for (std::size_t i = 0; i < tcpIn_.size();) {
    TcpIn& conn = tcpIn_[i];
    bool closeConn = false;
    for (;;) {
      const auto n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.bytes.insert(conn.bytes.end(), chunk, chunk + n);
        if (conn.bytes.size() > 4u + kMaxTcpFrame) {
          ++droppedMalformed_;
          closeConn = true;
        }
        continue;
      }
      if (n < 0 && wouldBlock(errno)) break;
      // EOF or error: the stream is complete (or dead) — decode if whole.
      closeConn = true;
      break;
    }
    if (!closeConn && conn.bytes.size() >= 4) {
      // Early completion check so a finished frame does not wait for EOF.
      std::uint32_t frameLen = 0;
      for (int b = 0; b < 4; ++b)
        frameLen |= static_cast<std::uint32_t>(conn.bytes[b]) << (8 * b);
      if (frameLen <= kMaxTcpFrame && conn.bytes.size() >= 4u + frameLen)
        closeConn = true;
    }
    if (closeConn) {
      if (conn.bytes.size() >= 4) {
        std::uint32_t frameLen = 0;
        for (int b = 0; b < 4; ++b)
          frameLen |= static_cast<std::uint32_t>(conn.bytes[b]) << (8 * b);
        sockaddr_in peer{};
        socklen_t peerLen = sizeof(peer);
        std::uint32_t fromIp = 0;
        if (::getpeername(conn.fd, reinterpret_cast<sockaddr*>(&peer),
                          &peerLen) == 0)
          fromIp = ntohl(peer.sin_addr.s_addr);
        if (frameLen <= kMaxTcpFrame && conn.bytes.size() == 4u + frameLen) {
          ++fallbackReceived_;
          handleFrame({conn.bytes.data() + 4, frameLen}, fromIp);
        } else {
          ++droppedMalformed_;
        }
      } else if (!conn.bytes.empty()) {
        ++droppedMalformed_;
      }
      closeIfOpen(conn.fd);
      conn = std::move(tcpIn_.back());
      tcpIn_.pop_back();
    } else {
      ++i;
    }
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
  fds.push_back({tcpFd_, POLLIN, 0});
  for (const auto& conn : tcpOut_) fds.push_back({conn.fd, POLLOUT, 0});
  for (const auto& conn : tcpIn_) fds.push_back({conn.fd, POLLIN, 0});
}

std::uint32_t UdpTransport::service() {
  dispatched_ = 0;
  receiveDatagrams();
  acceptFallbacks();
  readFallbacks();
  flushRetryQueue();
  flushFallbacks();
  return dispatched_;
}

std::uint32_t UdpTransport::pump(int timeoutMs) {
  std::vector<::pollfd> fds;
  addPollFds(fds);
  ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
  return service();
}

}  // namespace vs07::runtime
