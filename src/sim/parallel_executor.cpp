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
      runs_(jobs_ * kBucketsPerWorker),
      logs_(jobs_) {
  sim_.queue_.set_buckets(runs_.size());
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
  for (;;) {
    mark_ = wall_seconds();
    EventQueue::Key head = EventQueue::kNoKey;
    for (std::size_t b = 0; b < runs_.size(); ++b) {
      head = std::min(head, q.bucket_head(b));
    }
    const EventQueue::Key serial = q.serial_head();
    if (serial < head) {
      if (serial.time > deadline) break;
      // Serial events are synchronization barriers: everything before
      // them has replayed, so they observe exactly the sequential state.
      auto ev = q.pop();
      sim_.run_event(ev);
      ++stats_.serial_events;
      continue;
    }
    if (head == EventQueue::kNoKey || head.time > deadline) break;

    // The batch: every node-affine event inside the causal window that
    // the sequential engine would run before the next serial event — a
    // strict prefix of the sequential execution order.
    const EventQueue::Key limit =
        std::min({EventQueue::Key{head.time + lookahead_, 0},
                  EventQueue::Key{deadline + 1, 0}, serial});
    live_.clear();
    for (std::uint32_t b = 0; b < runs_.size(); ++b) {
      if (q.bucket_head(b) < limit) live_.push_back(b);
    }
    CROUPIER_ASSERT(!live_.empty());
    lap(stats_.drain_s);
    execute_batch(limit);
  }
  if (sim_.now_ < deadline) sim_.now_ = deadline;
}

void ParallelExecutor::execute_batch(EventQueue::Key limit) {
  // Publish: the release store of unclaimed_ hands the batch state to
  // every thread that claims a bucket from it. A batch held by one
  // bucket wakes nobody: the engine thread claims it itself.
  limit_ = limit;
  const auto count = static_cast<std::int32_t>(live_.size());
  outstanding_.store(count, std::memory_order_relaxed);
  unclaimed_.store(count, std::memory_order_release);
  if (count > 1) {
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  const std::int32_t ran = run_buckets(0);
  lap(stats_.execute_s);
  if (outstanding_.fetch_sub(ran, std::memory_order_acq_rel) != ran) {
    await(outstanding_, [](std::int32_t left) { return left == 0; });
  }
  lap(stats_.wait_s);
  replay();
  lap(stats_.replay_s);
}

void ParallelExecutor::replay() {
  std::uint64_t events = 0;
  SimTime last_time = 0;
  merge_.clear();
  for (const std::uint32_t b : live_) {
    const Run& run = runs_[b];
    events += run.events;
    last_time = std::max(last_time, run.last_time);
    if (!run.records.empty()) {
      const Record& first = run.records.front();
      merge_.push_back({{first.time, first.id}, b, 0});
    }
  }
  ++stats_.batches;
  stats_.batched_events += events;
  stats_.max_batch = std::max(stats_.max_batch, events);
  sim_.processed_ += events;

  // Deterministic replay: every deferred effect in the order the
  // sequential engine would have produced it — by issuing event, in
  // (time, id) order across the buckets, then issue order within the
  // event. Each bucket's records are already in (time, id) order, so a
  // k-way merge over the buckets orders the batch.
  // Determinism bound: a deferred schedule at or after the batch's last
  // event time gets a fresh id that sorts after every executed event, so
  // the sequential engine would run it in the same place (a same-time
  // target just forms the next batch). Only a target *before* last_time
  // would reorder history — that is what the assert catches. With
  // lookahead <= min_latency targets land at >= the window end anyway;
  // the floor also keeps the degenerate zero-min-latency same-timestamp
  // batches (lookahead clamped to 1 us) working instead of tripping the
  // guard.
  sim_.causal_floor_ = last_time;
  const auto later = [](const Cursor& x, const Cursor& y) {
    return y.key < x.key;
  };
  std::make_heap(merge_.begin(), merge_.end(), later);
  while (!merge_.empty()) {
    std::pop_heap(merge_.begin(), merge_.end(), later);
    Cursor& cursor = merge_.back();
    const Run& run = runs_[cursor.bucket];
    const Record& record = run.records[cursor.next];
    auto& ops = logs_[run.log].ops;
    sim_.now_ = record.time;
    for (std::uint32_t op = record.begin; op < record.end; ++op) {
      sim_.apply(ops[op]);
    }
    if (++cursor.next < run.records.size()) {
      const Record& next = run.records[cursor.next];
      cursor.key = {next.time, next.id};
      std::push_heap(merge_.begin(), merge_.end(), later);
    } else {
      merge_.pop_back();
    }
  }
  sim_.causal_floor_ = 0;
  sim_.now_ = last_time;
  for (auto& log : logs_) log.ops.clear();
}

void ParallelExecutor::lap(double& phase) {
  const double now = wall_seconds();
  phase += now - mark_;
  mark_ = now;
}

std::int32_t ParallelExecutor::run_buckets(std::size_t log_index) {
  Simulator::ShardLog& log = logs_[log_index];
  Simulator::bind_shard_log(&log);
  EventQueue& q = sim_.queue_;
  EventQueue::Event ev{};
  std::int32_t ran = 0;
  // A claim that finds unclaimed_ <= 0 (batch taken, or not yet
  // published) takes nothing; the next publish resets the counter.
  for (std::int32_t left;
       (left = unclaimed_.fetch_sub(1, std::memory_order_acq_rel)) > 0;
       ++ran) {
    const std::uint32_t bucket = live_[left - 1];
    Run& run = runs_[bucket];
    run.log = static_cast<std::uint32_t>(log_index);
    run.records.clear();
    run.events = 0;
    while (q.pop_below(bucket, limit_, ev)) {
      const auto begin = static_cast<std::uint32_t>(log.ops.size());
      log.current_time = ev.time;
      conflict::begin_shard_event(ev.affinity);
      ev.call();
      conflict::end_shard_event();
      const auto end = static_cast<std::uint32_t>(log.ops.size());
      ++run.events;
      run.last_time = ev.time;
      if (end != begin) run.records.push_back({ev.time, ev.id, begin, end});
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
