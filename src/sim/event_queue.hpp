// Priority queue of timed events for the discrete-event simulator.
//
// Events with equal timestamps fire in scheduling (FIFO) order, which makes
// simulations deterministic: the (time, sequence-number) pair is a total
// order. Cancellation is lazy — cancelled ids are remembered and skipped
// when popped — which keeps both schedule and cancel O(log n) amortized.
//
// Every event carries an *affinity* tag: the id of the node whose state
// the callback touches, or kSerialAffinity when the callback reads or
// writes state shared across nodes (scenario processes, recorders, NAT
// identification). The sequential engine ignores affinities; the
// round-synchronous parallel engine (sim/parallel_executor) uses them to
// decide which events may execute concurrently and which force a
// serialization point.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace croupier::sim {

/// Identifies a scheduled event; usable to cancel it before it fires.
using EventId = std::uint64_t;

/// Returned by schedule calls made from inside a parallel batch, where the
/// real id is only assigned at the deterministic replay. Never a live id.
constexpr EventId kInvalidEventId = 0;

/// Which node's state an event touches. kSerialAffinity marks events that
/// touch cross-node state and therefore must run alone, in order.
using Affinity = std::uint64_t;
constexpr Affinity kSerialAffinity = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `at`. Returns an id for cancellation.
  /// The two-argument form tags the event kSerialAffinity.
  EventId schedule(SimTime at, Callback fn) {
    return schedule(at, kSerialAffinity, std::move(fn));
  }
  EventId schedule(SimTime at, Affinity affinity, Callback fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of live pending events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Timestamp of the earliest live event. Must not be called when empty.
  [[nodiscard]] SimTime next_time();

  /// Affinity of the earliest live event. Must not be called when empty.
  [[nodiscard]] Affinity next_affinity();

  /// Removes and returns the earliest live event. Must not be called when
  /// empty.
  struct Fired {
    SimTime time;
    EventId id;
    Affinity affinity;
    Callback fn;
  };
  Fired pop();

 private:
  struct Entry {
    SimTime time;
    EventId id;
    Affinity affinity;

    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  void drop_cancelled_head();

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<EventId, Callback> callbacks_;
  std::size_t live_count_ = 0;
  EventId next_id_ = 1;
};

}  // namespace croupier::sim
