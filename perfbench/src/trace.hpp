// Tracing from outside the library.
//
// The traced run wraps every protocol instance the registry factory makes
// in a TracedSampler, which forwards each PeerSampler virtual to the real
// protocol and times round() and on_message(). Under the parallel engine
// handlers run on shard workers, so each thread writes its own
// CallAccumulator; the engine thread merges them between run_until slices,
// when the workers are parked.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "pss/protocol.hpp"
#include "runtime/world.hpp"

namespace perfbench {

/// Durations of one kind of call, in nanoseconds.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::vector<double> samples_ns;

  void add(std::uint64_t ns);
  void merge(const CallStats& other);
  void clear();
};

/// The handler calls one thread made since the last reset.
struct CallAccumulator {
  CallStats round;
  CallStats on_message;
};

/// Owns every thread's accumulator for the life of the process, so a
/// worker thread that exits never leaves a dangling thread_local pointer.
class HandlerTrace {
 public:
  /// The calling thread's accumulator (registered on first use).
  CallAccumulator& local();
  /// Clears every accumulator. Call only while no handler runs.
  void reset();
  /// Sum over threads. Call only while no handler runs.
  [[nodiscard]] CallAccumulator merged() const;
  /// Threads that executed at least one handler since the last reset.
  [[nodiscard]] std::size_t active_threads() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CallAccumulator>> threads_;
};

/// Forwards every PeerSampler virtual to `inner`, timing the handlers.
class TracedSampler final : public croupier::pss::PeerSampler {
 public:
  TracedSampler(const Context& ctx,
                std::unique_ptr<croupier::pss::PeerSampler> inner,
                HandlerTrace& trace);

  void init() override { inner_->init(); }
  void round() override;
  void on_message(croupier::net::NodeId from,
                  const croupier::net::Message& msg) override;
  std::optional<croupier::pss::NodeDescriptor> sample() override {
    return inner_->sample();
  }
  [[nodiscard]] std::vector<croupier::net::NodeId> out_neighbors()
      const override {
    return inner_->out_neighbors();
  }
  [[nodiscard]] std::vector<croupier::net::NodeId> usable_neighbors(
      const AliveFn& alive) const override {
    return inner_->usable_neighbors(alive);
  }
  [[nodiscard]] std::optional<double> ratio_estimate() const override {
    return inner_->ratio_estimate();
  }

  [[nodiscard]] const croupier::pss::PeerSampler& inner() const {
    return *inner_;
  }

 private:
  std::unique_ptr<croupier::pss::PeerSampler> inner_;
  HandlerTrace& trace_;
};

/// Wraps `factory` so every instance it makes is a TracedSampler.
croupier::run::ProtocolFactory traced_factory(
    croupier::run::ProtocolFactory factory, HandlerTrace& trace);

/// The protocol behind a sampler, looking through a TracedSampler.
const croupier::pss::PeerSampler& unwrap(
    const croupier::pss::PeerSampler& sampler);

}  // namespace perfbench
