#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace croupier::sim {

thread_local Simulator::ShardLog* Simulator::tls_log_ = nullptr;

Simulator::ShardLog* Simulator::active_log() const {
  ShardLog* log = tls_log_;
  return (log != nullptr && log->owner == this) ? log : nullptr;
}

void Simulator::bind_shard_log(ShardLog* log) { tls_log_ = log; }

SimTime Simulator::now() const {
  const ShardLog* log = active_log();
  return log != nullptr ? log->current_time : now_;
}

void Simulator::schedule_after(Duration delay, Affinity affinity,
                               EventQueue::Callback fn) {
  schedule_impl(now() + delay, affinity, std::move(fn), /*check_past=*/false);
}

void Simulator::schedule_at(SimTime at, Affinity affinity,
                            EventQueue::Callback fn) {
  schedule_impl(at, affinity, std::move(fn), /*check_past=*/true);
}

void Simulator::schedule_impl(SimTime at, Affinity affinity,
                              EventQueue::Callback fn, bool check_past) {
  if (ShardLog* log = active_log()) {
    // Parallel batch: the queue is shared, so the schedule itself becomes
    // a deferred effect. Re-entering schedule_impl at replay time (the log
    // is inactive there) repeats the serial-path checks.
    log->ops.emplace_back(
        [this, at, affinity, fn = std::move(fn), check_past]() mutable {
          schedule_impl(at, affinity, std::move(fn), check_past);
        });
    return;
  }
  if (check_past) {
    CROUPIER_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  }
  // While replaying a parallel batch, every deferred schedule must land at
  // or beyond the lookahead window end; a violation means a latency model
  // undercut its declared min_latency() and the batch was not causally
  // closed.
  CROUPIER_ASSERT_MSG(causal_floor_ == 0 || at >= causal_floor_,
                      "deferred schedule violates the lookahead window");
  queue_.schedule(at, affinity, std::move(fn));
}

void Simulator::defer(EventQueue::Callback effect) {
  if (ShardLog* log = active_log()) {
    log->ops.push_back(std::move(effect));
    return;
  }
  effect();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  CROUPIER_ASSERT(fired.time >= now_);
  now_ = fired.time;
  ++processed_;
  fired.fn();
  return true;
}

void Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace croupier::sim
