#include "runtime/control.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace vs07::runtime {

namespace {

/// A command line (or a reply backlog) beyond this is a broken client.
constexpr std::size_t kMaxLineBytes = 1 << 16;
constexpr std::size_t kMaxConns = 64;

bool wouldBlock(int error) {
  return error == EAGAIN || error == EWOULDBLOCK;
}

}  // namespace

ControlServer::ControlServer(std::uint16_t port, CommandFn onCommand)
    : onCommand_(std::move(onCommand)) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) throw std::runtime_error("socket(control) failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listenFd_, 16) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("bind(control) failed: " +
                             std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("getsockname(control) failed");
  }
  port_ = ntohs(addr.sin_port);
}

ControlServer::~ControlServer() {
  for (auto& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
  if (listenFd_ >= 0) ::close(listenFd_);
}

void ControlServer::addPollFds(std::vector<::pollfd>& fds) const {
  fds.push_back({listenFd_, POLLIN, 0});
  for (const auto& conn : conns_)
    fds.push_back(
        {conn.fd,
         static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0});
}

std::uint32_t ControlServer::service() {
  std::uint32_t dispatched = 0;
  // Accept everything pending.
  for (;;) {
    const int fd =
        ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;
    if (conns_.size() >= kMaxConns) {
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
  }

  char chunk[4096];
  for (std::size_t i = 0; i < conns_.size();) {
    Conn& conn = conns_[i];
    bool dead = false;
    bool eof = false;  // read side closed; replies may still be owed
    for (;;) {
      const auto n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        if (conn.in.size() > kMaxLineBytes) dead = true;
        continue;
      }
      if (n < 0 && wouldBlock(errno)) break;
      if (n == 0)
        eof = true;  // one-shot clients shutdown(WR) after the command
      else
        dead = true;
      break;
    }
    std::size_t eol;
    while (!dead && (eol = conn.in.find('\n')) != std::string::npos) {
      std::string line = conn.in.substr(0, eol);
      conn.in.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      conn.out += onCommand_(line);
      conn.out += '\n';
      ++dispatched;
    }
    // Flush replies.
    while (!dead && !conn.out.empty()) {
      const auto n =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && wouldBlock(errno)) break;
      dead = true;
      break;
    }
    if (dead || (eof && conn.out.empty())) {
      ::close(conn.fd);
      conn = std::move(conns_.back());
      conns_.pop_back();
    } else {
      ++i;
    }
  }
  return dispatched;
}

}  // namespace vs07::runtime
