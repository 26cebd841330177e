// MessagePool — recyclable slot storage for in-flight messages.
//
// The queued transport (sim::LatencyTransport, via the engine) used to
// copy each queued Message into a heap-allocated closure; at a million
// nodes that made the allocator the hot path. The pool keeps
// freelists of Message slots whose entry/id vectors retain their
// capacity across reuse, so a steady-state cycle checks messages in and
// out without touching the allocator at all:
//
//   * checkIn(msg) swaps the sender's payload into a pooled slot and
//     hands the slot's previously recycled buffers back to the sender's
//     scratch message (which resets and refills them next exchange);
//   * at(slot) exposes the queued message until delivery;
//   * release(slot) returns the slot — buffers intact — to its freelist.
//
// One freelist per payload shape — gossip entries, pull-digest ids, or
// no buffer at all (Data) — keyed on which buffer the sender brings. A
// slot keeps its shape for life, so a scratch sender always swaps its
// warm buffer for another warm buffer of the same kind, and bufferless
// Data traffic (most of a live cycle's sends) never takes a warmed slot
// or leaves a cold one behind for the next scratch sender. Warm buffers
// then number the peak in-flight count of their own shape, not of all
// traffic.
//
// Slots live in a deque, so references and indices stay stable while the
// pool grows; indices are recycled LIFO within a shape to keep warm
// buffers in use.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/expect.hpp"
#include "net/message.hpp"

namespace vs07::net {

/// Per-shape freelists of recyclable Message slots (see file comment).
/// Single threaded, like the simulation it feeds.
class MessagePool {
 public:
  using Slot = std::uint32_t;

  /// Moves `msg`'s payload into a pooled slot of its shape (swap — `msg`
  /// is left holding the slot's recycled buffers, reset and reusable),
  /// records its destination, and returns the slot index, stable until
  /// release(). Destinations live in the pool because every in-flight
  /// message has one; keeping them here spares each queueing transport a
  /// parallel bookkeeping array.
  Slot checkIn(NodeId to, Message& msg) {
    const Shape shape = shapeOf(msg.entries.capacity(), msg.ids.capacity());
    std::vector<Slot>& free = free_[shape];
    Slot slot;
    if (!free.empty()) {
      slot = free.back();
      free.pop_back();
      ++recycled_;
    } else {
      slot = mintSlot(shape);
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

  /// Returns the slot to its shape's freelist. Its buffers keep their
  /// capacity and are handed to a future sender of the same shape by a
  /// later checkIn(). A slot may be released exactly once per check-in:
  /// a double release would put the slot on a freelist twice and
  /// silently alias two later in-flight messages, so it is a contract
  /// violation.
  void release(Slot slot) {
    VS07_EXPECT(slot < slots_.size());
    VS07_EXPECT(live_[slot]);
    live_[slot] = 0;
    --inUse_;
    free_[shape_[slot]].push_back(slot);
  }

  /// Pre-creates free slots — payload buffers reserved to the given
  /// capacities, on the freelist of the shape those capacities describe
  /// (sharded gossip warms the entries shape) — until the pool holds at
  /// least `target` slots. A fresh slot minted by checkIn() starts with
  /// cold buffers and swaps the sender's warm buffer away, so an
  /// in-flight record reached mid-cycle costs several allocations;
  /// growing to the record *with slack* at a quiet moment (cycle
  /// boundaries) keeps later records on warm slots.
  void reserveWarm(std::size_t target, std::size_t entryCapacity,
                   std::size_t idCapacity) {
    const Shape shape = shapeOf(entryCapacity, idCapacity);
    while (slots_.size() < target) {
      const Slot slot = mintSlot(shape);
      slots_[slot].entries.reserve(entryCapacity);
      slots_[slot].ids.reserve(idCapacity);
      free_[shape].push_back(slot);
    }
  }

  /// Tops up the payload buffers of every slot of the shape those
  /// capacities describe, free or checked in, to at least those
  /// capacities. An owner tracking a high-water payload capacity calls
  /// it when the high-water grows: a slot warmed before that would hand
  /// a short buffer to the next sender whose message it swaps with.
  void rewarm(std::size_t entryCapacity, std::size_t idCapacity) {
    const Shape shape = shapeOf(entryCapacity, idCapacity);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (shape_[i] != shape) continue;
      Message& stored = slots_[i];
      if (stored.entries.capacity() < entryCapacity)
        stored.entries.reserve(entryCapacity);
      if (stored.ids.capacity() < idCapacity) stored.ids.reserve(idCapacity);
    }
  }

  /// Slots currently checked in (queued messages).
  std::size_t inUse() const noexcept { return inUse_; }
  /// High-water mark of simultaneously checked-in slots (since
  /// construction or the last resetPeak()).
  std::size_t peakInUse() const noexcept { return peakInUse_; }
  /// Restarts the high-water mark from the current in-use count.
  void resetPeak() noexcept { peakInUse_ = inUse_; }
  /// Slots ever created; stops growing once traffic reaches steady state.
  std::size_t capacity() const noexcept { return slots_.size(); }
  /// checkIn() calls served from a freelist rather than a fresh slot.
  std::uint64_t recycledCheckIns() const noexcept { return recycled_; }

 private:
  /// Payload shape, named by the buffer a sender brings: gossip view
  /// entries, pull-digest ids, or none (Data).
  enum Shape : std::uint8_t { kEntries, kIds, kBare, kShapes };

  static Shape shapeOf(std::size_t entryCapacity,
                       std::size_t idCapacity) noexcept {
    if (entryCapacity != 0) return kEntries;
    if (idCapacity != 0) return kIds;
    return kBare;
  }

  /// Creates a checked-out slot of `shape` with cold buffers.
  Slot mintSlot(Shape shape) {
    const auto slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
    live_.push_back(0);
    to_.push_back(kNoNode);
    shape_.push_back(shape);
    return slot;
  }

  std::deque<Message> slots_;
  std::array<std::vector<Slot>, kShapes> free_;
  /// Per-slot checked-in flag, backing the double-release contract.
  std::vector<std::uint8_t> live_;
  /// Per-slot destination (valid while live).
  std::vector<NodeId> to_;
  /// Per-slot shape: the freelist the slot returns to.
  std::vector<Shape> shape_;
  std::size_t inUse_ = 0;
  std::size_t peakInUse_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace vs07::net
