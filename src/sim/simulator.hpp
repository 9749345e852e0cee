// The discrete-event simulation kernel.
//
// This is the substrate standing in for the Kompics simulator the paper
// used: an event loop over virtual time. Components schedule callbacks at
// absolute or relative times; the simulator fires them in deterministic
// (time, scheduling-order) order and advances the clock discontinuously
// to each event's timestamp.
//
// Two engines share this kernel:
//   - the classic sequential loop (step / run_until / run), and
//   - the round-synchronous parallel engine (sim/parallel_executor),
//     which executes causally independent node-affine events on worker
//     threads and replays their shared-state effects serially in
//     (time, seq) order, so its output is byte-identical to the
//     sequential loop.
//
// The bridge between the two is defer(): any effect that touches state
// shared across nodes (the network RNG, traffic meters, the event queue
// itself) must go through defer(fn). Outside a parallel batch defer runs
// the effect immediately — the classic path is unchanged — while inside a
// batch it is logged per thread and applied at the deterministic replay.
// Scheduling calls made during a batch are deferred the same way (the
// event's sequence number is assigned at the replay). Scheduled events
// cannot be cancelled: a scheduler that may call one off guards its
// callback with an arming flag (run::ScenarioProcess, the NAT-ID timeout).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace croupier::sim {

class Simulator {
 public:
  /// Current virtual time. Inside a parallel batch this is the executing
  /// event's own timestamp, so callbacks always observe the same clock
  /// they would under the sequential engine.
  [[nodiscard]] SimTime now() const;

  /// Number of events executed so far (for diagnostics and tests).
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// True when no pending events remain.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Schedules a callback `delay` after the current time. The affinity
  /// overload tags the event with the node whose state the callback
  /// touches; the plain overload tags it kSerialAffinity.
  void schedule_after(Duration delay, EventQueue::Callback fn) {
    schedule_after(delay, kSerialAffinity, std::move(fn));
  }
  void schedule_after(Duration delay, Affinity affinity,
                      EventQueue::Callback fn);

  /// Schedules a callback at an absolute virtual time (>= now).
  void schedule_at(SimTime at, EventQueue::Callback fn) {
    schedule_at(at, kSerialAffinity, std::move(fn));
  }
  void schedule_at(SimTime at, Affinity affinity, EventQueue::Callback fn);

  /// True while the calling thread is executing a parallel-batch shard of
  /// THIS simulator. Hot paths branch on this to apply cross-node effects
  /// inline instead of paying the deferral closure; the two are
  /// equivalent by the defer() contract (nothing running inside the batch
  /// can observe the deferred state).
  [[nodiscard]] bool deferring() const { return active_log() != nullptr; }

  /// Runs `effect` now when executing serially, or logs it for the
  /// deterministic (time, seq, issue-order) replay when called from a
  /// worker inside a parallel batch. Effects that mutate cross-node state
  /// from node-affine callbacks (network sends, meter charges) MUST be
  /// routed through here — it is what keeps the parallel engine
  /// byte-identical to the sequential one.
  void defer(EventQueue::Callback effect);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Runs until the queue is empty or the clock would pass `deadline`.
  /// Events scheduled exactly at `deadline` are executed. On return the
  /// clock reads min(deadline, time of last event).
  void run_until(SimTime deadline);

  /// Runs for a span of virtual time from now.
  void run_for(Duration span) { run_until(now_ + span); }

  /// Runs until no events remain.
  void run();

 private:
  friend class ParallelExecutor;

  /// One thread's log for one parallel batch: while it runs events,
  /// tls_log_ points here and current_time is the running event's time.
  /// ops are the deferred effects in issue order; the executor replays
  /// each event's range of them in batch (time, seq) order.
  struct alignas(64) ShardLog {
    Simulator* owner = nullptr;
    SimTime current_time = 0;
    std::vector<EventQueue::Callback> ops;
  };

  /// The calling thread's active shard log for *this* simulator, or
  /// nullptr when executing serially.
  [[nodiscard]] ShardLog* active_log() const;

  /// Binds/unbinds the calling thread's shard log. All tls_log_ access
  /// stays inside simulator.cpp: gcc routes cross-TU thread_local
  /// references through a TLS wrapper that UBSan's null check
  /// mis-flags as a store through null.
  static void bind_shard_log(ShardLog* log);

  void schedule_impl(SimTime at, Affinity affinity, EventQueue::Callback fn,
                     bool check_past);

  static thread_local ShardLog* tls_log_;

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  /// During a parallel replay: no deferred schedule may target a time
  /// before this (causality guard for the lookahead window). 0 = off.
  SimTime causal_floor_ = 0;
};

}  // namespace croupier::sim
