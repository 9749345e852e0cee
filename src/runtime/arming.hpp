// The arming guard of a self-rescheduling event chain.
//
// The event queue has no cancellation. A component that schedules a
// chain of serial events on its own behalf (a scenario process, a
// recorder) arms a fresh flag on each start and wraps every callback it
// schedules in guard(): the callback runs only while that arming is
// current. disarm() — from stop() or the destructor — turns every queued
// event of the chain into a no-op, so a stopped component never acts
// again, a restart never stacks a second chain, and a destroyed one
// leaves no live pointer to itself behind.
#pragma once

#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace croupier::run {

class Arming {
 public:
  Arming() = default;
  ~Arming() { disarm(); }
  Arming(const Arming&) = delete;
  Arming& operator=(const Arming&) = delete;

  /// Starts a fresh arming. Must not be armed already.
  void arm() {
    CROUPIER_ASSERT(!armed());
    flag_ = std::make_shared<bool>(true);
  }

  /// Ends the current arming, if any; idempotent.
  void disarm() {
    if (flag_) *flag_ = false;
  }

  [[nodiscard]] bool armed() const { return flag_ && *flag_; }

  /// `fn`, made a no-op once the current arming ends.
  template <typename Fn>
  auto guard(Fn fn) const {
    return [armed = flag_, fn = std::move(fn)]() mutable {
      if (*armed) fn();
    };
  }

 private:
  std::shared_ptr<bool> flag_;  // shared with every queued event
};

}  // namespace croupier::run
