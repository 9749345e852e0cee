// Priority queue of timed events for the discrete-event simulator.
//
// Events with equal timestamps fire in scheduling (FIFO) order, which makes
// simulations deterministic: the (time, id) pair, with ids drawn from one
// counter in scheduling order, is a total order. There is no
// cancellation. A scheduler that may need to call an event off arms it
// with a guard flag instead (run::ScenarioProcess, natid::NatIdClient),
// and the stale event fires as a no-op.
//
// Events are typed. An event's body is a Call: a plain function pointer,
// the object it acts on, two small arguments and an optional shared
// payload (a network message rides there as its MessagePtr). Heap
// entries are plain values, so scheduling allocates nothing and src/sim
// needs no header from net/ or runtime/. Only serial events may carry a
// closure (Simulator::schedule_at/_after park it in a side table).
//
// Every event carries an *affinity* tag: the id of the node whose state
// the body touches, or kSerialAffinity when the body reads or writes
// state shared across nodes (scenario processes, recorders, NAT
// identification). The queue is split by it into heaps: serial events
// have a heap of their own, node-affine events live in `buckets()` heaps
// chosen by shard_of(affinity, buckets). The sequential engine runs one
// bucket; the round-synchronous parallel engine (sim/parallel_executor)
// runs jobs × kBucketsPerWorker, and each thread pops the buckets it
// claims. pop() returns the earliest event across all heaps, so the
// order never depends on the split.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace croupier::sim {

/// Scheduling sequence number: breaks ties between same-time events in
/// FIFO order.
using EventId = std::uint64_t;

/// Which node's state an event touches. kSerialAffinity marks events that
/// touch cross-node state and therefore must run alone, in order.
using Affinity = std::uint64_t;
constexpr Affinity kSerialAffinity = 0;

/// Stable bucket assignment: which of `buckets` buckets holds the events
/// for `affinity`. A pure function of (affinity, buckets) so partitioning
/// can never depend on scheduling history.
inline std::size_t shard_of(Affinity affinity, std::size_t buckets) {
  std::uint64_t s = affinity;
  return static_cast<std::size_t>(splitmix64(s) % buckets);
}

/// Shared, type-erased payload of a Call (a MessagePtr converts to it).
using Payload = std::shared_ptr<const void>;

/// The body of a typed event or deferred effect: `fn(*this)`.
struct Call {
  using Fn = void (*)(Call&);

  Call() = default;
  explicit Call(Fn fn, void* target = nullptr, std::uint64_t a = 0,
                std::uint64_t b = 0, Payload payload = nullptr)
      : fn(fn), target(target), a(a), b(b), payload(std::move(payload)) {}

  Fn fn = nullptr;
  void* target = nullptr;  ///< the object fn acts on
  std::uint64_t a = 0;     ///< small arguments, meaning fixed by fn
  std::uint64_t b = 0;
  Payload payload;

  /// The Call that runs `target->Method(call)`, for a member
  /// `void T::Method(Call&)` that unpacks the arguments.
  template <auto Method, typename T>
  static Call to(T* target, std::uint64_t a = 0, std::uint64_t b = 0,
                 Payload payload = nullptr) {
    return Call{[](Call& c) { (static_cast<T*>(c.target)->*Method)(c); },
                target, a, b, std::move(payload)};
  }

  void operator()() { fn(*this); }
};

class EventQueue {
 public:
  /// An event's place in the total order.
  struct Key {
    SimTime time;
    EventId id;
    auto operator<=>(const Key&) const = default;
  };
  /// Sorts after every event.
  static constexpr Key kNoKey{std::numeric_limits<SimTime>::max(),
                              std::numeric_limits<EventId>::max()};

  /// A scheduled event.
  struct Event {
    SimTime time;
    EventId id;
    Affinity affinity;
    Call call;

    [[nodiscard]] Key key() const { return {time, id}; }
  };

  explicit EventQueue(std::size_t buckets = 1);

  /// Schedules `call` at absolute time `at` with the next id. The
  /// two-argument form tags the event kSerialAffinity. Never called
  /// concurrently with itself or with any pop.
  void schedule(SimTime at, Call call) {
    schedule(at, kSerialAffinity, std::move(call));
  }
  void schedule(SimTime at, Affinity affinity, Call call);

  /// Re-splits the node-affine events over `buckets` (>= 1) heaps.
  void set_buckets(std::size_t buckets);
  [[nodiscard]] std::size_t buckets() const { return heaps_.size() - 1; }

  [[nodiscard]] bool empty() const;

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const;

  /// The earliest event, or nullptr when empty.
  [[nodiscard]] const Event* peek() const;

  /// Timestamp of the earliest event. Must not be called when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Affinity of the earliest event. Must not be called when empty.
  [[nodiscard]] Affinity next_affinity() const;

  /// Removes and returns the earliest event. Must not be called when
  /// empty.
  Event pop();

  /// Key of the earliest serial event, or of bucket `b`'s earliest
  /// event; kNoKey when that heap is empty.
  [[nodiscard]] Key serial_head() const { return head_of(heaps_[0]); }
  [[nodiscard]] Key bucket_head(std::size_t b) const {
    return head_of(heaps_[b + 1]);
  }

  /// Pops bucket `b`'s earliest event into `out` when its key is below
  /// `limit`; false otherwise. Threads may pop distinct buckets at once.
  bool pop_below(std::size_t b, Key limit, Event& out);

 private:
  /// A 4-ary min-heap on (time, id): half as deep as a binary heap, so
  /// a pop moves half as many events. On its own cache lines, as threads
  /// pop different buckets concurrently.
  struct alignas(64) Heap {
    std::vector<Event> events;
  };
  static bool fires_later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
  static Key head_of(const Heap& h) {
    return h.events.empty() ? kNoKey : h.events.front().key();
  }
  /// Moves heap[i] up to its place in a heap valid above it.
  static void sift_up(std::vector<Event>& heap, std::size_t i);
  /// Removes and returns the heap's earliest event.
  static Event pop_front(std::vector<Event>& heap);
  /// The heap holding the earliest event; nullptr when empty.
  [[nodiscard]] const Heap* earliest() const;

  std::vector<Heap> heaps_;  // [0] serial, [1 + b] bucket b
  EventId next_id_ = 1;
};

}  // namespace croupier::sim
