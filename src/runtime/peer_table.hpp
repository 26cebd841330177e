// NodeId -> socket address resolution for the real-socket runtime.
//
// The protocol stack addresses peers by NodeId (dense ids drawn from the
// shared population seed); the wire needs IPv4/port pairs. The table
// learns addresses two ways, both driven by received traffic: every
// frame teaches the sender's own address (source IP + the listen port
// carried in the frame header), and every frame's address annex teaches
// third-party addresses for the peers referenced in its gossip entries.
// The two are not equally trustworthy — any peer can put anything in an
// annex — so a self-taught address overwrites anything, while an annex
// hint only fills a gap or replaces another hint: one third-party entry
// cannot redirect a peer that has spoken for itself.
// Sends to a node whose address is still unknown are counted and dropped
// — indistinguishable from a lost datagram, which the gossip layer
// already tolerates by design.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "net/node_id.hpp"

namespace vs07::runtime {

/// One peer's socket address. Host byte order throughout; conversion to
/// network order happens at the sendto/recvfrom boundary only.
struct PeerAddress {
  std::uint32_t ipv4 = 0;
  std::uint16_t port = 0;

  /// Port 0 doubles as "unknown": no peer listens on port 0.
  bool valid() const noexcept { return port != 0; }

  friend bool operator==(const PeerAddress&, const PeerAddress&) = default;
};

/// Parses a dotted-quad IPv4 literal (plus the "localhost" alias) into a
/// PeerAddress. Returns an invalid address on anything else — the
/// runtime is deliberately resolver-free; harnesses pass numeric hosts.
PeerAddress parseAddress(const std::string& host, std::uint16_t port);

/// Renders "a.b.c.d:port" for logs and control-socket JSON.
std::string formatAddress(const PeerAddress& addr);

/// Where an address was learned, in increasing order of trust.
enum class AddressSource : std::uint8_t {
  /// A third party's claim (a frame's address annex).
  kHint,
  /// The peer's own (its frame header, or configured by the operator).
  kSelf,
};

/// Dense NodeId -> PeerAddress map for a fixed population.
class PeerTable {
 public:
  explicit PeerTable(std::uint32_t nodeCount)
      : addresses_(nodeCount), sources_(nodeCount, AddressSource::kHint) {}

  std::uint32_t nodeCount() const noexcept {
    return static_cast<std::uint32_t>(addresses_.size());
  }

  /// Records a peer's address learned from `source`. A self-taught
  /// address overwrites anything (a peer that rebinds is re-learned from
  /// its next frame); a hint never overwrites a self-taught address.
  void learn(NodeId node, const PeerAddress& addr, AddressSource source) {
    VS07_EXPECT(node < addresses_.size());
    if (!addr.valid()) return;
    if (!addresses_[node].valid()) {
      ++known_;
    } else if (source < sources_[node]) {
      return;
    }
    addresses_[node] = addr;
    sources_[node] = source;
  }

  /// The peer's address; !valid() when never learned.
  const PeerAddress& lookup(NodeId node) const {
    VS07_EXPECT(node < addresses_.size());
    return addresses_[node];
  }

  bool knows(NodeId node) const { return lookup(node).valid(); }

  /// Peers with a learned address.
  std::uint32_t knownCount() const noexcept { return known_; }

  /// Appends up to `limit` known (node, address) pairs to `out`, skipping
  /// `exclude` — the WELCOME annex assembly.
  template <typename OutVec>
  void fillKnown(std::size_t limit, NodeId exclude, OutVec& out) const {
    for (NodeId node = 0; node < addresses_.size(); ++node) {
      if (out.size() >= limit) break;
      if (node == exclude || !addresses_[node].valid()) continue;
      out.push_back({node, addresses_[node]});
    }
  }

 private:
  std::vector<PeerAddress> addresses_;
  std::vector<AddressSource> sources_;
  std::uint32_t known_ = 0;
};

}  // namespace vs07::runtime
