// Control socket — how the cluster harness talks to a running node.
//
// A tiny line protocol over TCP on a separate port: the harness sends
// one command per line ("status", "publish", "report <dataId>", "quit")
// and the node answers with exactly one line of JSON. The listener binds
// 127.0.0.1 only: the commands are unauthenticated, and "quit" or
// "publish" from another host would drive the node. The server is
// policy-free: it owns sockets and line framing and hands every decoded
// command to a callback that returns the reply — vs07_node supplies the
// actual command table. Connections are persistent (one per harness,
// many commands) but per-command connections work too; everything is
// nonblocking and serviced from the same poll loop as the transport.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

struct pollfd;  // <poll.h>

namespace vs07::runtime {

class ControlServer {
 public:
  /// Called once per received command line (stripped of the newline);
  /// returns the reply, sent back as one line.
  using CommandFn = std::function<std::string(const std::string& line)>;

  /// Binds a TCP listener on 127.0.0.1:`port` (0 = ephemeral; see
  /// listenPort). Throws std::runtime_error when sockets are unavailable.
  ControlServer(std::uint16_t port, CommandFn onCommand);
  ~ControlServer();

  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  std::uint16_t listenPort() const noexcept { return port_; }

  void addPollFds(std::vector<::pollfd>& fds) const;

  /// Accepts, reads, dispatches complete lines, flushes replies. Never
  /// blocks. Returns the number of commands dispatched.
  std::uint32_t service();

 private:
  struct Conn {
    int fd = -1;
    std::string in;   // partial command line
    std::string out;  // unflushed replies
  };

  CommandFn onCommand_;
  std::uint16_t port_ = 0;
  int listenFd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace vs07::runtime
