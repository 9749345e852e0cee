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

void Simulator::post_after(Duration delay, Affinity affinity, Call call) {
  schedule_impl(now() + delay, affinity, std::move(call));
}

void Simulator::post_at(SimTime at, Affinity affinity, Call call) {
  schedule_impl(at, affinity, std::move(call));
}

Call Simulator::closure_call(Callback fn) {
  CROUPIER_ASSERT(fn != nullptr);
  CROUPIER_ASSERT_MSG(!deferring(), "closures are for serial events only");
  std::uint32_t slot;
  if (free_closures_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  } else {
    slot = free_closures_.back();
    free_closures_.pop_back();
    closures_[slot] = std::move(fn);
  }
  return Call::to<&Simulator::run_closure>(this, slot);
}

void Simulator::run_closure(Call& call) {
  const auto slot = static_cast<std::uint32_t>(call.a);
  Callback fn = std::move(closures_[slot]);
  closures_[slot] = nullptr;
  free_closures_.push_back(slot);
  fn();
}

void Simulator::schedule_after(Duration delay, Callback fn) {
  post_after(delay, kSerialAffinity, closure_call(std::move(fn)));
}

void Simulator::schedule_at(SimTime at, Callback fn) {
  post_at(at, kSerialAffinity, closure_call(std::move(fn)));
}

void Simulator::schedule_impl(SimTime at, Affinity affinity, Call call) {
  if (ShardLog* log = active_log()) {
    // Parallel batch: the queue is shared, so the schedule itself becomes
    // a deferred op. Re-entering schedule_impl at replay time (the log is
    // inactive there, and now_ is the issuing event's time) repeats the
    // serial-path checks.
    log->ops.push_back(
        Op{Op::Kind::Schedule, at, affinity, std::move(call)});
    return;
  }
  CROUPIER_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  // While replaying a parallel batch, every deferred schedule must land at
  // or after the batch's last event time; a violation means a latency
  // model undercut its declared min_latency() and the batch was not
  // causally closed.
  CROUPIER_ASSERT_MSG(causal_floor_ == 0 || at >= causal_floor_,
                      "deferred schedule violates the lookahead window");
  queue_.schedule(at, affinity, std::move(call));
}

void Simulator::defer(Call effect) {
  if (ShardLog* log = active_log()) {
    log->ops.push_back(Op{Op::Kind::Run, 0, kSerialAffinity,
                          std::move(effect)});
    return;
  }
  effect();
}

void Simulator::apply(Op& op) {
  if (op.kind == Op::Kind::Run) {
    op.call();
  } else {
    schedule_impl(op.at, op.affinity, std::move(op.call));
  }
}

void Simulator::run_event(EventQueue::Event& ev) {
  CROUPIER_ASSERT(ev.time >= now_);
  now_ = ev.time;
  ++processed_;
  ev.call();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  run_event(ev);
  return true;
}

void Simulator::run_until(SimTime deadline) {
  for (const EventQueue::Event* head;
       (head = queue_.peek()) != nullptr && head->time <= deadline;) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace croupier::sim
