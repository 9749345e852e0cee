// Priority queue of timed events for the discrete-event simulator.
//
// Events with equal timestamps fire in scheduling (FIFO) order, which makes
// simulations deterministic: the (time, sequence-number) pair is a total
// order. The queue is one binary heap of entries that own their
// callbacks, boxed: sifts move 32-byte entries, and world set-up measured
// faster than with the closure held inline. There is no cancellation. A scheduler that may need to call
// an event off arms it with a guard flag instead (run::ScenarioProcess,
// natid::NatIdClient), and the stale event fires as a no-op.
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
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace croupier::sim {

/// Scheduling sequence number: breaks ties between same-time events in
/// FIFO order.
using EventId = std::uint64_t;

/// Which node's state an event touches. kSerialAffinity marks events that
/// touch cross-node state and therefore must run alone, in order.
using Affinity = std::uint64_t;
constexpr Affinity kSerialAffinity = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `at`. The two-argument form tags the
  /// event kSerialAffinity.
  void schedule(SimTime at, Callback fn) {
    schedule(at, kSerialAffinity, std::move(fn));
  }
  void schedule(SimTime at, Affinity affinity, Callback fn);

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event. Must not be called when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Affinity of the earliest event. Must not be called when empty.
  [[nodiscard]] Affinity next_affinity() const;

  /// A scheduled event.
  struct Fired {
    SimTime time;
    EventId id;
    Affinity affinity;
    Callback fn;
  };

  /// Removes and returns the earliest event. Must not be called when
  /// empty.
  Fired pop();

 private:
  struct Entry {
    SimTime time;
    EventId id;
    Affinity affinity;
    std::unique_ptr<Callback> fn;
  };
  /// Heap order: std::*_heap keep the greatest element at the front, so
  /// "greater" means "fires later".
  static bool fires_later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }

  std::vector<Entry> heap_;  // min-heap on (time, id)
  EventId next_id_ = 1;
};

}  // namespace croupier::sim
