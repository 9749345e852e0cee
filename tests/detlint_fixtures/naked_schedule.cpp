// Fixture: naked-schedule — Simulator scheduling API reached from shard
// context without the deferring() guard.
struct PeerSampler;  // marks this file as a protocol implementation

void round() {
  sim_.schedule_after(10, 1, [] {});
  auto id = sim_.schedule_at(99, [] {});
  sim_.cancel(id);
  if (!sim_.deferring()) {
    sim_.schedule_after(10, 1, [] {});
  }
  sim_.defer([] { sim_.schedule_after(10, 1, [] {}); });
  // detlint:allow(naked-schedule) fixture: re-arm discards the EventId
  sim_.schedule_after(10, 1, [] {});
}

void not_a_handler() {
  sim_.schedule_after(10, 1, [] {});
}

void on_message() {
  sim_.post_after(10, 1, Call::to<&Node::fire>(this, 1));
  sim_.post_at(99, 1, Call::to<&Node::fire>(this, 1));
  if (!sim_.deferring()) {
    sim_.post_at(99, 1, Call::to<&Node::fire>(this, 1));
  }
  // detlint:allow(naked-schedule) fixture: a typed re-arm, waived
  sim_.post_after(10, 1, Call::to<&Node::fire>(this, 1));
}
