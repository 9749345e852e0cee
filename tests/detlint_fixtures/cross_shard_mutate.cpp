// Fixture: cross-shard-mutate — cross-node engine state touched from a
// node-affine handler without routing through Simulator::defer.
struct PeerSampler;  // marks this file as a protocol implementation

void helper_bad() { ++next_msg_id_; }
void helper_serial_only() { ++next_msg_id_; }

void on_message(int from) {
  meter_.on_send(from, 10);
  helper_bad();
  nodes_.erase(from);
  nodes_.find(from);
  simulator_.defer([from] { drops_.loss += 1; });
  if (!simulator_.deferring()) {
    drops_.loss += 1;
  }
  // detlint:allow(cross-shard-mutate) test corpus: waiver grammar check
  buckets_.clear();
}

void round() {
  ++next_id_;
}
