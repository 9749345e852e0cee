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
// The loop:
//   1. If the head event is serial-affinity (scenario joins/kills,
//      recorders, NAT identification), execute it exactly like the
//      sequential engine — serial events are synchronization barriers.
//   2. Otherwise drain the maximal run of node-affine events with
//      time < head_time + lookahead (stopping at any serial event) in
//      (time, seq) order and split it into buckets by a stable hash of
//      the node id, so one node's events share a bucket in (time, seq)
//      order. The engine thread and the workers claim buckets from one
//      atomic counter until none is left. Per-node state is touched only
//      by its own bucket; every cross-node effect (network sends, meter
//      charges, RNG draws, event scheduling) is deferred into the
//      running thread's log via Simulator::defer(), and each event
//      records the range of log entries it issued.
//   3. Replay: walk the batch in (time, seq) order and run each event's
//      logged effects on the engine thread — exactly the order the
//      sequential engine would have applied them in. Event ids assigned
//      during the replay (message deliveries, next-round timers) come out
//      in the same order as under the sequential engine, so future
//      batches tie-break identically.
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

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace croupier::sim {

/// Stable bucket assignment: which of `buckets` buckets holds the events
/// for `affinity`. A pure function of (affinity, buckets) so partitioning
/// can never depend on scheduling history.
inline std::size_t shard_of(Affinity affinity, std::size_t buckets) {
  std::uint64_t s = affinity;
  return static_cast<std::size_t>(splitmix64(s) % buckets);
}

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
    std::uint64_t serial_events = 0;  ///< events executed serially
    std::uint64_t max_batch = 0;      ///< largest single batch
    double drain_s = 0.0;    ///< popping node-affine runs, bucketing
    double execute_s = 0.0;  ///< publishing, the engine thread's buckets
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

  /// The log entries one batched event issued: logs_[log].ops[begin, end).
  struct OpRange {
    std::uint32_t log, begin, end;
  };

  void execute_batch();
  /// Claims buckets until none is left, running their events into
  /// logs_[log]. Returns how many buckets it ran.
  std::int32_t run_buckets(std::size_t log);
  void worker_loop(std::size_t log);
  /// Adds the wall time since the last mark to `phase`; marks now.
  void lap(double& phase);

  Simulator& sim_;
  std::size_t jobs_;
  Duration lookahead_;
  Stats stats_;
  double mark_ = 0.0;  // wall seconds at the last phase boundary

  // Batch state, reused across batches: the events in (time, seq) order,
  // each bucket's batch indices, the non-empty buckets, each event's ops.
  std::vector<EventQueue::Fired> batch_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> live_;
  std::vector<OpRange> op_ranges_;
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
