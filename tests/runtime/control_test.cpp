// The control socket takes unauthenticated commands ("quit",
// "publish"), so it must listen on loopback only.
#include "runtime/control.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace vs07::runtime {
namespace {

TEST(ControlServer, ListensOnLoopbackOnly) {
  std::unique_ptr<ControlServer> server;
  try {
    server = std::make_unique<ControlServer>(
        0, [](const std::string&) { return std::string("{}"); });
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback sockets unavailable here";
  }
  std::vector<::pollfd> fds;
  server->addPollFds(fds);
  ASSERT_EQ(fds.size(), 1u);  // the listener alone: no client yet
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fds.front().fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  EXPECT_EQ(ntohl(addr.sin_addr.s_addr), INADDR_LOOPBACK);
  EXPECT_EQ(ntohs(addr.sin_port), server->listenPort());
}

}  // namespace
}  // namespace vs07::runtime
