#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// The accumulator of the calling thread, per HandlerTrace. One trace
// exists per trial process, so a single slot keyed by owner suffices.
thread_local const HandlerTrace* tls_owner = nullptr;
thread_local CallAccumulator* tls_acc = nullptr;

}  // namespace

void CallStats::add(std::uint64_t ns) {
  ++calls;
  total_ns += ns;
  samples_ns.push_back(static_cast<double>(ns));
}

void CallStats::merge(const CallStats& other) {
  calls += other.calls;
  total_ns += other.total_ns;
  samples_ns.insert(samples_ns.end(), other.samples_ns.begin(),
                    other.samples_ns.end());
}

void CallStats::clear() {
  calls = 0;
  total_ns = 0;
  samples_ns.clear();
}

CallAccumulator& HandlerTrace::local() {
  if (tls_owner != this || tls_acc == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<CallAccumulator>());
    tls_acc = threads_.back().get();
    tls_owner = this;
  }
  return *tls_acc;
}

void HandlerTrace::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& acc : threads_) {
    acc->round.clear();
    acc->on_message.clear();
  }
}

CallAccumulator HandlerTrace::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  CallAccumulator out;
  for (const auto& acc : threads_) {
    out.round.merge(acc->round);
    out.on_message.merge(acc->on_message);
  }
  return out;
}

std::size_t HandlerTrace::active_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      threads_.begin(), threads_.end(), [](const auto& acc) {
        return acc->round.calls + acc->on_message.calls > 0;
      }));
}

TracedSampler::TracedSampler(const Context& ctx,
                             std::unique_ptr<croupier::pss::PeerSampler> inner,
                             HandlerTrace& trace)
    : PeerSampler(ctx), inner_(std::move(inner)), trace_(trace) {}

void TracedSampler::round() {
  const auto start = Clock::now();
  inner_->round();
  trace_.local().round.add(elapsed_ns(start));
}

void TracedSampler::on_message(croupier::net::NodeId from,
                               const croupier::net::Message& msg) {
  const auto start = Clock::now();
  inner_->on_message(from, msg);
  trace_.local().on_message.add(elapsed_ns(start));
}

croupier::run::ProtocolFactory traced_factory(
    croupier::run::ProtocolFactory factory, HandlerTrace& trace) {
  return [factory = std::move(factory),
          &trace](croupier::pss::PeerSampler::Context ctx)
             -> std::unique_ptr<croupier::pss::PeerSampler> {
    const croupier::pss::PeerSampler::Context outer = ctx;
    return std::make_unique<TracedSampler>(outer, factory(std::move(ctx)),
                                           trace);
  };
}

const croupier::pss::PeerSampler& unwrap(
    const croupier::pss::PeerSampler& sampler) {
  if (const auto* traced = dynamic_cast<const TracedSampler*>(&sampler)) {
    return traced->inner();
  }
  return sampler;
}

}  // namespace perfbench
