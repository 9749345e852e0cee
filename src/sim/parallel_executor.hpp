// Round-synchronous parallel execution engine for one simulation.
//
// The sequential engine executes events strictly in (time, seq) order.
// This engine exploits the one structural fact that makes a peer-sampling
// simulation parallelizable: nodes only influence each other through the
// simulated network, and every network hop takes at least the latency
// model's min_latency(). Events for *different* nodes whose timestamps
// lie within one min_latency window are therefore causally independent —
// a conservative-lookahead PDES window, degenerating to "all events
// sharing a timestamp" when the lookahead is one microsecond.
//
// The queue's node-affine events live in jobs × kBucketsPerWorker heaps,
// split by a stable hash of the node id (shard_of), so one node's events
// share a heap; serial events have a heap of their own. The loop:
//   1. If the earliest event is serial-affinity (scenario joins/kills,
//      recorders, NAT identification), execute it exactly like the
//      sequential engine — serial events are synchronization barriers.
//   2. Otherwise a batch is every node-affine event whose (time, id) key
//      is below min((head_time + lookahead, 0), (deadline + 1, 0),
//      serial head): the maximal run of node-affine events the
//      sequential engine would execute next, stopping at the first
//      serial event. The engine thread reads only the bucket heads to
//      find the buckets holding some of it. The engine thread and the
//      workers claim those buckets from one atomic counter until none is
//      left; a thread pops its bucket's events below the limit in
//      (time, id) order and runs them. Per-node state is touched only
//      by its own bucket; every cross-node effect (network sends, meter
//      charges, RNG draws, event scheduling) is deferred into the
//      running thread's log as a typed op via Simulator::defer(), and
//      each event records {time, id, its range of log ops}.
//   3. Replay: merge the buckets' records in (time, id) order and apply
//      each event's logged ops on the engine thread — exactly the order
//      the sequential engine would have applied them in. Event ids
//      assigned during the replay (message deliveries, next-round
//      timers) come out in the same order as under the sequential
//      engine, so future batches tie-break identically.
//
// Waiting threads spin a bounded number of polls, then park in
// std::atomic::wait, so idle workers hold no core.
//
// The result is byte-identical output for every worker count, including
// the sequential engine itself (World runs it when world_jobs <= 1) —
// the property scripts/check_determinism.sh pins across every bench.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace croupier::sim {

class ParallelExecutor {
 public:
  struct Options {
    /// Worker count (>= 1), the engine thread included. 1 runs batches
    /// on the engine thread — same batching, same replay, no threads.
    std::size_t jobs = 1;
    /// Causal lookahead: events for different nodes closer together than
    /// this may run concurrently. Must not exceed the minimum one-way
    /// network latency. Clamped up to 1 us (same-timestamp batching).
    Duration lookahead = 1;
  };

  ParallelExecutor(Simulator& sim, Options options);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] std::size_t jobs() const { return jobs_; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Drives the simulation to `deadline` (inclusive), replacing
  /// Simulator::run_until. Byte-identical to the sequential engine.
  void run_until(SimTime deadline);

  /// Engine counters (diagnostics; effective parallelism reporting).
  /// The phase times are wall seconds on the engine thread, for stderr
  /// telemetry only: no result ever reads them.
  struct Stats {
    std::uint64_t batches = 0;        ///< parallel batches executed
    std::uint64_t batched_events = 0; ///< events executed inside batches
    std::uint64_t serial_events = 0;  ///< serial-affinity events
    std::uint64_t max_batch = 0;      ///< largest single batch
    double drain_s = 0.0;    ///< reading bucket heads: the batch limit
    double execute_s = 0.0;  ///< publishing, the engine thread's buckets
                             ///< (their pops included)
    double wait_s = 0.0;     ///< waiting for workers' last buckets
    double replay_s = 0.0;   ///< replaying deferred effects

    Stats& operator+=(const Stats& o) {
      batches += o.batches;
      batched_events += o.batched_events;
      serial_events += o.serial_events;
      max_batch = std::max(max_batch, o.max_batch);
      drain_s += o.drain_s;
      execute_s += o.execute_s;
      wait_s += o.wait_s;
      replay_s += o.replay_s;
      return *this;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Buckets per worker: enough for the threads to even out a skewed
  /// ~60-event batch, few enough that a bucket holds a couple of events.
  static constexpr std::size_t kBucketsPerWorker = 8;

  /// One executed event: its key and the log ops it issued,
  /// logs_[run.log].ops[begin, end). Events that issued none are only
  /// counted.
  struct Record {
    SimTime time;
    EventId id;
    std::uint32_t begin, end;
  };
  /// What one claimed bucket ran in the current batch, in (time, id)
  /// order; on its own cache lines, as threads fill runs concurrently.
  struct alignas(64) Run {
    std::vector<Record> records;
    std::uint32_t log = 0;
    std::uint32_t events = 0;
    SimTime last_time = 0;
  };
  /// Replay merge position in one bucket's records.
  struct Cursor {
    EventQueue::Key key;
    std::uint32_t bucket, next;
  };

  /// Runs the batch of every node-affine event below `limit`, held by
  /// the buckets in live_.
  void execute_batch(EventQueue::Key limit);
  /// Claims buckets until none is left, popping and running their events
  /// below limit_ into logs_[log]. Returns how many buckets it ran.
  std::int32_t run_buckets(std::size_t log);
  /// Applies every recorded event's ops in (time, id) order.
  void replay();
  void worker_loop(std::size_t log);
  /// Adds the wall time since the last mark to `phase`; marks now.
  void lap(double& phase);

  Simulator& sim_;
  std::size_t jobs_;
  Duration lookahead_;
  Stats stats_;
  double mark_ = 0.0;  // wall seconds at the last phase boundary

  // Batch state, reused across batches: the key every batched event is
  // below, the buckets holding some, what each bucket ran, the replay
  // merge and the per-thread logs.
  EventQueue::Key limit_{};
  std::vector<std::uint32_t> live_;
  std::vector<Run> runs_;  // by bucket
  std::vector<Cursor> merge_;
  std::vector<Simulator::ShardLog> logs_;  // [0] engine thread, [w] worker w

  // Handoff. The engine publishes a batch by storing unclaimed_ (release)
  // and bumping generation_; threads claim buckets by decrementing
  // unclaimed_ and report finished ones by decrementing outstanding_.
  std::vector<std::thread> workers_;
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  alignas(64) std::atomic<std::int32_t> unclaimed_{0};
  alignas(64) std::atomic<std::int32_t> outstanding_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace croupier::sim
