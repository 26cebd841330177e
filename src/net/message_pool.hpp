// MessagePool — recyclable slot storage for in-flight messages.
//
// The queued transport (sim::LatencyTransport, via the engine) used to
// copy each queued Message into a heap-allocated closure; at a million
// nodes that made the allocator the hot path. The pool keeps
// a freelist of Message slots whose entry/id vectors retain their
// capacity across reuse, so a steady-state cycle checks messages in and
// out without touching the allocator at all:
//
//   * checkIn(msg) swaps the sender's payload into a pooled slot and
//     hands the slot's previously recycled buffers back to the sender's
//     scratch message (which resets and refills them next exchange);
//   * at(slot) exposes the queued message until delivery;
//   * release(slot) returns the slot — buffers intact — to the freelist.
//
// Slots live in a deque, so references and indices stay stable while the
// pool grows; indices are recycled LIFO to keep warm buffers in use.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/expect.hpp"
#include "net/message.hpp"

namespace vs07::net {

/// Freelist of recyclable Message slots (see file comment). Single
/// threaded, like the simulation it feeds.
class MessagePool {
 public:
  using Slot = std::uint32_t;

  /// Moves `msg`'s payload into a pooled slot (swap — `msg` is left
  /// holding the slot's recycled buffers, reset and reusable), records
  /// its destination, and returns the slot index, stable until
  /// release(). Destinations live in the pool because every in-flight
  /// message has one; keeping them here spares each queueing transport a
  /// parallel bookkeeping array.
  Slot checkIn(NodeId to, Message& msg) {
    Slot slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      ++recycled_;
    } else {
      slot = static_cast<Slot>(slots_.size());
      slots_.emplace_back();
      live_.push_back(0);
      to_.push_back(kNoNode);
    }
    live_[slot] = 1;
    to_[slot] = to;
    ++inUse_;
    if (inUse_ > peakInUse_) peakInUse_ = inUse_;
    Message& stored = slots_[slot];
    stored.reset();
    stored.kind = msg.kind;
    stored.channel = msg.channel;
    stored.from = msg.from;
    stored.dataId = msg.dataId;
    stored.hop = msg.hop;
    stored.flags = msg.flags;
    // Vector buffers swap only when the sender brings capacity of its
    // own (scratch senders do; transient Data messages own none), so a
    // slot never surrenders its warmed buffer to a message that is about
    // to be destroyed.
    if (msg.entries.capacity() != 0) stored.entries.swap(msg.entries);
    if (msg.ids.capacity() != 0) stored.ids.swap(msg.ids);
    msg.reset();
    return slot;
  }

  /// The message checked into `slot` (valid until release()).
  Message& at(Slot slot) {
    VS07_EXPECT(slot < slots_.size());
    VS07_EXPECT(live_[slot]);
    return slots_[slot];
  }

  /// The destination recorded at check-in.
  NodeId destination(Slot slot) const {
    VS07_EXPECT(slot < slots_.size());
    VS07_EXPECT(live_[slot]);
    return to_[slot];
  }

  /// Returns the slot to the freelist. Its buffers keep their capacity
  /// and are handed to a future sender by the next checkIn(). A slot may
  /// be released exactly once per check-in: a double release would put
  /// the slot on the freelist twice and silently alias two later
  /// in-flight messages, so it is a contract violation.
  void release(Slot slot) {
    VS07_EXPECT(slot < slots_.size());
    VS07_EXPECT(live_[slot]);
    live_[slot] = 0;
    --inUse_;
    free_.push_back(slot);
  }

  /// Pre-creates free slots — payload buffers reserved to the given
  /// capacities — until the pool holds at least `target` slots. A fresh
  /// slot minted by checkIn() starts with cold buffers and swaps the
  /// sender's warm buffer away, so an in-flight record reached mid-cycle
  /// costs several allocations; growing to the record *with slack* at a
  /// quiet moment (cycle boundaries) keeps later records on warm slots.
  void reserveWarm(std::size_t target, std::size_t entryCapacity,
                   std::size_t idCapacity) {
    while (slots_.size() < target) {
      Message& slot = slots_.emplace_back();
      slot.entries.reserve(entryCapacity);
      slot.ids.reserve(idCapacity);
      live_.push_back(0);
      to_.push_back(kNoNode);
      free_.push_back(static_cast<Slot>(slots_.size() - 1));
    }
  }

  /// Slots currently checked in (queued messages).
  std::size_t inUse() const noexcept { return inUse_; }
  /// High-water mark of simultaneously checked-in slots.
  std::size_t peakInUse() const noexcept { return peakInUse_; }
  /// Slots ever created; stops growing once traffic reaches steady state.
  std::size_t capacity() const noexcept { return slots_.size(); }
  /// checkIn() calls served from the freelist rather than a fresh slot.
  std::uint64_t recycledCheckIns() const noexcept { return recycled_; }

 private:
  std::deque<Message> slots_;
  std::vector<Slot> free_;
  /// Per-slot checked-in flag, backing the double-release contract.
  std::vector<std::uint8_t> live_;
  /// Per-slot destination (valid while live).
  std::vector<NodeId> to_;
  std::size_t inUse_ = 0;
  std::size_t peakInUse_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace vs07::net
