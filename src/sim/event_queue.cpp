#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace croupier::sim {

namespace {

/// Children per heap node (EventQueue::Heap is 4-ary).
constexpr std::size_t kArity = 4;

}  // namespace

void EventQueue::sift_up(std::vector<Event>& heap, std::size_t i) {
  Event ev = std::move(heap[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!fires_later(heap[parent], ev)) break;
    heap[i] = std::move(heap[parent]);
    i = parent;
  }
  heap[i] = std::move(ev);
}

EventQueue::EventQueue(std::size_t buckets) : heaps_(1 + buckets) {
  CROUPIER_ASSERT(buckets >= 1);
}

EventQueue::Event EventQueue::pop_front(std::vector<Event>& heap) {
  Event front = std::move(heap.front());
  Event last = std::move(heap.back());
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return front;
  // Sift the hole at the root down to where `last` belongs.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t earliest = first;
    for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
      if (fires_later(heap[earliest], heap[c])) earliest = c;
    }
    if (!fires_later(last, heap[earliest])) break;
    heap[i] = std::move(heap[earliest]);
    i = earliest;
  }
  heap[i] = std::move(last);
  return front;
}

void EventQueue::schedule(SimTime at, Affinity affinity, Call call) {
  CROUPIER_ASSERT(call.fn != nullptr);
  const std::size_t n = buckets();
  Heap& h = affinity == kSerialAffinity ? heaps_[0]
            : n == 1                    ? heaps_[1]
                                        : heaps_[1 + shard_of(affinity, n)];
  h.events.push_back(Event{at, next_id_++, affinity, std::move(call)});
  sift_up(h.events, h.events.size() - 1);
}

void EventQueue::set_buckets(std::size_t buckets) {
  CROUPIER_ASSERT(buckets >= 1);
  std::vector<Event> node_events;
  for (std::size_t h = 1; h < heaps_.size(); ++h) {
    for (Event& ev : heaps_[h].events) node_events.push_back(std::move(ev));
  }
  heaps_.resize(1);
  heaps_.resize(1 + buckets);
  for (Event& ev : node_events) {
    auto& heap = heaps_[1 + shard_of(ev.affinity, buckets)].events;
    heap.push_back(std::move(ev));
    sift_up(heap, heap.size() - 1);
  }
}

bool EventQueue::empty() const { return earliest() == nullptr; }

std::size_t EventQueue::size() const {
  std::size_t n = 0;
  for (const Heap& h : heaps_) n += h.events.size();
  return n;
}

const EventQueue::Heap* EventQueue::earliest() const {
  const Heap* best = nullptr;
  Key best_key = kNoKey;
  for (const Heap& h : heaps_) {
    const Key key = head_of(h);
    if (key < best_key) {
      best = &h;
      best_key = key;
    }
  }
  return best;
}

const EventQueue::Event* EventQueue::peek() const {
  const Heap* h = earliest();
  return h == nullptr ? nullptr : &h->events.front();
}

SimTime EventQueue::next_time() const {
  const Event* head = peek();
  CROUPIER_ASSERT_MSG(head != nullptr, "next_time() on empty queue");
  return head->time;
}

Affinity EventQueue::next_affinity() const {
  const Event* head = peek();
  CROUPIER_ASSERT_MSG(head != nullptr, "next_affinity() on empty queue");
  return head->affinity;
}

EventQueue::Event EventQueue::pop() {
  const Heap* h = earliest();
  CROUPIER_ASSERT_MSG(h != nullptr, "pop() on empty queue");
  return pop_front(heaps_[static_cast<std::size_t>(h - heaps_.data())].events);
}

bool EventQueue::pop_below(std::size_t b, Key limit, Event& out) {
  std::vector<Event>& heap = heaps_[b + 1].events;
  if (heap.empty() || !(heap.front().key() < limit)) return false;
  out = pop_front(heap);
  return true;
}

}  // namespace croupier::sim
