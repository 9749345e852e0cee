#include "sim/parallel_executor.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "sim/conflict.hpp"

namespace croupier::sim {

namespace {

/// Polls before a waiting thread parks (~1 us at ~18 ns a poll): enough
/// to catch a last bucket about to finish. On a shared 4-vCPU VM, 1024
/// and 8192 polls bought no run time and slowed other work on the host.
constexpr std::uint32_t kSpinPolls = 64;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `ready(word)` holds: spins kSpinPolls polls, then parks in
/// std::atomic::wait. Returns the value that satisfied `ready`.
template <typename T, typename Ready>
T await(const std::atomic<T>& word, Ready ready) {
  for (std::uint32_t polls = 0;; ++polls) {
    const T value = word.load(std::memory_order_acquire);
    if (ready(value)) return value;
    if (polls < kSpinPolls) {
      cpu_relax();
    } else {
      word.wait(value, std::memory_order_acquire);
    }
  }
}

double wall_seconds() {
  // detlint:allow(wallclock) phase times feed only Stats, which stderr
  // telemetry prints; no result ever reads them.
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

}  // namespace

ParallelExecutor::ParallelExecutor(Simulator& sim, Options options)
    : sim_(sim),
      jobs_(std::max<std::size_t>(1, options.jobs)),
      lookahead_(std::max<Duration>(1, options.lookahead)),
      buckets_(jobs_ * kBucketsPerWorker),
      logs_(jobs_) {
  for (auto& log : logs_) log.owner = &sim_;
  workers_.reserve(jobs_ - 1);
  for (std::size_t log = 1; log < jobs_; ++log) {
    workers_.emplace_back([this, log] { worker_loop(log); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::run_until(SimTime deadline) {
  EventQueue& q = sim_.queue_;
  while (!q.empty() && q.next_time() <= deadline) {
    if (q.next_affinity() == kSerialAffinity) {
      // Serial events are synchronization barriers: everything before
      // them has replayed, so they observe exactly the sequential state.
      sim_.step();
      ++stats_.serial_events;
      continue;
    }

    // Drain the maximal (time, seq)-ordered run of node-affine events
    // inside the causal window. Stopping at the first serial event keeps
    // the run a strict prefix of the sequential execution order.
    mark_ = wall_seconds();
    const SimTime t0 = q.next_time();
    const SimTime wend = std::min(t0 + lookahead_, deadline + 1);
    batch_.clear();
    while (!q.empty() && q.next_time() < wend &&
           q.next_affinity() != kSerialAffinity) {
      batch_.push_back(q.pop());
    }
    CROUPIER_ASSERT(!batch_.empty());

    if (batch_.size() == 1) {
      // A lone event's deferred effects would replay immediately after it
      // in issue order anyway (and nothing it runs can observe the
      // difference — that is the defer() contract), so execute it like
      // Simulator::step() and skip the worker handoff.
      lap(stats_.drain_s);
      auto& ev = batch_.front();
      sim_.now_ = ev.time;
      ++sim_.processed_;
      ++stats_.serial_events;
      ev.fn();
      continue;
    }
    // Bucket by node; a stable pass, so each bucket is in batch order.
    for (auto& bucket : buckets_) bucket.clear();
    for (std::uint32_t i = 0; i < batch_.size(); ++i) {
      buckets_[shard_of(batch_[i].affinity, buckets_.size())].push_back(i);
    }
    live_.clear();
    for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
      if (!buckets_[b].empty()) live_.push_back(b);
    }
    lap(stats_.drain_s);
    execute_batch();
  }
  if (sim_.now_ < deadline) sim_.now_ = deadline;
}

void ParallelExecutor::execute_batch() {
  ++stats_.batches;
  stats_.batched_events += batch_.size();
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch_.size());
  const SimTime last_time = batch_.back().time;  // batch_ is (time, seq)-sorted
  op_ranges_.resize(batch_.size());

  // Publish: the release store of unclaimed_ hands the batch state to
  // every thread that claims a bucket from it.
  const auto count = static_cast<std::int32_t>(live_.size());
  outstanding_.store(count, std::memory_order_relaxed);
  unclaimed_.store(count, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  const std::int32_t ran = run_buckets(0);
  lap(stats_.execute_s);
  if (outstanding_.fetch_sub(ran, std::memory_order_acq_rel) != ran) {
    await(outstanding_, [](std::int32_t left) { return left == 0; });
  }
  lap(stats_.wait_s);

  // Deterministic replay: every deferred effect in the order the
  // sequential engine would have produced it — by issuing event, in
  // batch (time, seq) order, then issue order within the event.
  // Determinism bound: a deferred schedule at or after the batch's last
  // event time gets a fresh id that sorts after every executed event, so
  // the sequential engine would run it in the same place (a same-time
  // target just forms the next batch). Only a target *before* last_time
  // would reorder history — that is what the assert catches. With
  // lookahead <= min_latency targets land at >= wend anyway; the floor
  // also keeps the degenerate zero-min-latency same-timestamp batches
  // (lookahead clamped to 1 us) working instead of tripping the guard.
  sim_.processed_ += batch_.size();
  sim_.causal_floor_ = last_time;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const OpRange& range = op_ranges_[i];
    auto& ops = logs_[range.log].ops;
    sim_.now_ = batch_[i].time;
    for (std::uint32_t op = range.begin; op < range.end; ++op) ops[op]();
  }
  sim_.causal_floor_ = 0;
  sim_.now_ = last_time;
  for (auto& log : logs_) log.ops.clear();
  lap(stats_.replay_s);
}

void ParallelExecutor::lap(double& phase) {
  const double now = wall_seconds();
  phase += now - mark_;
  mark_ = now;
}

std::int32_t ParallelExecutor::run_buckets(std::size_t log_index) {
  Simulator::ShardLog& log = logs_[log_index];
  Simulator::bind_shard_log(&log);
  std::int32_t ran = 0;
  // A claim that finds unclaimed_ <= 0 (batch taken, or not yet
  // published) takes nothing; the next publish resets the counter.
  for (std::int32_t left;
       (left = unclaimed_.fetch_sub(1, std::memory_order_acq_rel)) > 0;
       ++ran) {
    for (const std::uint32_t i : buckets_[live_[left - 1]]) {
      auto& ev = batch_[i];
      const auto begin = static_cast<std::uint32_t>(log.ops.size());
      log.current_time = ev.time;
      conflict::begin_shard_event(ev.affinity);
      ev.fn();
      conflict::end_shard_event();
      op_ranges_[i] = {static_cast<std::uint32_t>(log_index), begin,
                       static_cast<std::uint32_t>(log.ops.size())};
    }
  }
  Simulator::bind_shard_log(nullptr);
  return ran;
}

void ParallelExecutor::worker_loop(std::size_t log) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await(generation_, [seen](std::uint32_t g) { return g != seen; });
    if (stopping_.load(std::memory_order_relaxed)) return;
    const std::int32_t ran = run_buckets(log);
    if (ran > 0 &&
        outstanding_.fetch_sub(ran, std::memory_order_acq_rel) == ran) {
      outstanding_.notify_one();
    }
  }
}

}  // namespace croupier::sim
