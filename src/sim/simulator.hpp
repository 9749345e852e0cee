// The discrete-event simulation kernel.
//
// This is the substrate standing in for the Kompics simulator the paper
// used: an event loop over virtual time. Components schedule events at
// absolute or relative times; the simulator fires them in deterministic
// (time, scheduling-order) order and advances the clock discontinuously
// to each event's timestamp.
//
// Events are typed (see sim/event_queue): post_at/post_after schedule a
// Call with an affinity, which is how every node-affine event is made
// (round timers, message deliveries). schedule_at/schedule_after take a
// closure and always make a serial event — scenario processes, recorders
// and the NAT-ID timeout; the closure waits in a side table, so the
// queue entry stays a plain Call.
//
// Two engines share this kernel:
//   - the classic sequential loop (step / run_until / run), and
//   - the round-synchronous parallel engine (sim/parallel_executor),
//     which executes causally independent node-affine events on worker
//     threads and replays their shared-state effects serially in
//     (time, seq) order, so its output is byte-identical to the
//     sequential loop.
// Both run the same EventQueue; the parallel engine only splits its
// node-affine events over more buckets, and step / run_until see every
// bucket.
//
// The bridge between the two is defer(): any effect that touches state
// shared across nodes (the network RNG, traffic meters, the event queue
// itself) must go through defer(call). Outside a parallel batch defer
// runs the effect immediately — the classic path is unchanged — while
// inside a batch it is appended to the running thread's log as a typed
// op and applied at the deterministic replay. Scheduling calls made
// during a batch are deferred the same way (the event's sequence number
// is assigned at the replay). Scheduled events cannot be cancelled: a
// scheduler that may call one off guards its callback with an arming
// flag (run::ScenarioProcess, the recorders, the NAT-ID timeout).
#pragma once

#include <cstdint>
#include <functional>
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

  /// Schedules the typed event `call` `delay` after the current time,
  /// tagged with the node whose state it touches (or kSerialAffinity).
  void post_after(Duration delay, Affinity affinity, Call call);

  /// Schedules the typed event `call` at an absolute time (>= now).
  void post_at(SimTime at, Affinity affinity, Call call);

  /// A serial event's body: closures are for serial events only.
  using Callback = std::function<void()>;

  /// Schedules the serial closure `fn` `delay` after the current time.
  void schedule_after(Duration delay, Callback fn);

  /// Schedules the serial closure `fn` at an absolute time (>= now).
  void schedule_at(SimTime at, Callback fn);

  /// True while the calling thread is executing a parallel-batch shard of
  /// THIS simulator. Hot paths branch on this to apply cross-node effects
  /// inline instead of logging a deferred op; the two are
  /// equivalent by the defer() contract (nothing running inside the batch
  /// can observe the deferred state).
  [[nodiscard]] bool deferring() const { return active_log() != nullptr; }

  /// Runs `effect` now when executing serially, or logs it for the
  /// deterministic (time, seq, issue-order) replay when called from a
  /// worker inside a parallel batch. Effects that mutate cross-node state
  /// from node-affine callbacks (network sends, meter charges) MUST be
  /// routed through here — it is what keeps the parallel engine
  /// byte-identical to the sequential one.
  void defer(Call effect);

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

  /// One deferred effect: run `call`, or schedule it (the deferred form
  /// of post_*/schedule_*, which assigns the event's id at the replay).
  struct Op {
    enum class Kind : std::uint8_t { Run, Schedule };
    Kind kind = Kind::Run;
    SimTime at = 0;  // schedules: the absolute target time
    Affinity affinity = kSerialAffinity;
    Call call;
  };

  /// One thread's log for one parallel batch: while it runs events,
  /// tls_log_ points here and current_time is the running event's time.
  /// ops are the deferred effects in issue order; the executor replays
  /// each event's range of them in batch (time, seq) order.
  struct alignas(64) ShardLog {
    Simulator* owner = nullptr;
    SimTime current_time = 0;
    std::vector<Op> ops;
  };

  /// Applies one deferred effect (replay; engine thread only).
  void apply(Op& op);

  /// Runs one popped event serially: clock, count, body.
  void run_event(EventQueue::Event& ev);

  /// The Call of a serial closure event: parks `fn` in closures_ until
  /// run_closure takes it back out. Engine thread only.
  Call closure_call(Callback fn);
  void run_closure(Call& call);

  /// The calling thread's active shard log for *this* simulator, or
  /// nullptr when executing serially.
  [[nodiscard]] ShardLog* active_log() const;

  /// Binds/unbinds the calling thread's shard log. All tls_log_ access
  /// stays inside simulator.cpp: gcc routes cross-TU thread_local
  /// references through a TLS wrapper that UBSan's null check
  /// mis-flags as a store through null.
  static void bind_shard_log(ShardLog* log);

  void schedule_impl(SimTime at, Affinity affinity, Call call);

  static thread_local ShardLog* tls_log_;

  EventQueue queue_;
  /// Closures of queued serial events, by slot, and the free slots.
  std::vector<Callback> closures_;
  std::vector<std::uint32_t> free_closures_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  /// During a parallel replay: no deferred schedule may target a time
  /// before this (causality guard for the lookahead window). 0 = off.
  SimTime causal_floor_ = 0;
};

}  // namespace croupier::sim
