#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace croupier::sim {

void EventQueue::schedule(SimTime at, Affinity affinity, Callback fn) {
  CROUPIER_ASSERT(fn != nullptr);
  heap_.push_back(Entry{at, next_id_++, affinity,
                        std::make_unique<Callback>(std::move(fn))});
  std::push_heap(heap_.begin(), heap_.end(), fires_later);
}

SimTime EventQueue::next_time() const {
  CROUPIER_ASSERT_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().time;
}

Affinity EventQueue::next_affinity() const {
  CROUPIER_ASSERT_MSG(!heap_.empty(), "next_affinity() on empty queue");
  return heap_.front().affinity;
}

EventQueue::Fired EventQueue::pop() {
  CROUPIER_ASSERT_MSG(!heap_.empty(), "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), fires_later);
  Entry& head = heap_.back();
  Fired fired{head.time, head.id, head.affinity, std::move(*head.fn)};
  heap_.pop_back();
  return fired;
}

}  // namespace croupier::sim
