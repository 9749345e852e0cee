#include "net/network.hpp"

#include <cstdio>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "sim/conflict.hpp"
#include "wire/wire.hpp"

namespace croupier::net {

namespace {

// A (from, to) pair packed into one Call argument.
std::uint64_t route(NodeId from, NodeId to) {
  return (std::uint64_t{from} << 32) | to;
}
NodeId route_from(std::uint64_t r) { return static_cast<NodeId>(r >> 32); }
NodeId route_to(std::uint64_t r) { return static_cast<NodeId>(r); }

}  // namespace

/// A fragmented message between its split on the sender's shard and the
/// serial half that stamps its msg_id.
struct Network::OutgoingFragments {
  MessagePtr msg;
  std::vector<Fragment> frags;
};

/// One fragment in flight: what a fragment-delivery event carries.
struct Network::FragmentDelivery {
  MessagePtr msg;
  Fragment frag;
};

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency, sim::RngStream rng,
                 std::unique_ptr<LossModel> loss)
    : simulator_(simulator),
      latency_(std::move(latency)),
      rng_(rng),
      loss_(std::move(loss)),
      loss_class_sensitive_(loss_ != nullptr && loss_->class_sensitive()) {
  CROUPIER_ASSERT(latency_ != nullptr);
}

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency, sim::RngStream rng,
                 double loss_probability)
    : Network(simulator, std::move(latency), rng,
              make_loss_model(LossConfig::uniform(loss_probability))) {}

void Network::set_packet_config(const PacketConfig& cfg) {
  CROUPIER_ASSERT_MSG(next_msg_id_ == 1 && meter_.empty(),
                      "packet config must be set before traffic flows");
  packet_ = cfg;
  fragmenter_ = Fragmenter(cfg);
}

void Network::attach(NodeId id, const NatConfig& cfg,
                     MessageHandler& handler) {
  CROUPIER_ASSERT_MSG(!nodes_.contains(id), "NodeId already attached");
  NodeState& state = nodes_.emplace(id);
  state.cfg = cfg;
  state.handler = &handler;
  if (!cfg.behaves_public()) state.nat.emplace(cfg);
}

void Network::detach(NodeId id) {
  const bool erased = nodes_.erase(id);
  CROUPIER_ASSERT_MSG(erased, "detach of unattached node");
  buckets_.erase(id);
}

void Network::reclassify(NodeId id, const NatConfig& cfg) {
  NodeState& node = nodes_.at(id, "reclassify of unattached node");
  node.cfg = cfg;
  node.nat.reset();
  if (!cfg.behaves_public()) node.nat.emplace(cfg);
  node.assemblies.clear();
  buckets_.erase(id);
}

NatType Network::type_of(NodeId id) const {
  return nodes_.at(id).cfg.nat_type();
}

const NatBox* Network::nat_of(NodeId id) const {
  const NodeState* node = nodes_.find(id);
  if (node == nullptr || !node->nat.has_value()) return nullptr;
  return &*node->nat;
}

IpAddr Network::local_ip(NodeId id) const {
  switch (nodes_.at(id).cfg.cls) {
    case ConnectivityClass::Natted:
    case ConnectivityClass::UpnpIgd:
      // RFC1918-style address behind the gateway.
      return IpAddr{0x0a000000u | (id & 0x00ffffffu)};
    case ConnectivityClass::OpenInternet:
    case ConnectivityClass::Firewalled:
      return public_ip(id);
  }
  return {};
}

IpAddr Network::public_ip(NodeId id) const {
  CROUPIER_ASSERT(nodes_.contains(id));
  // Deterministic distinct "public" address per node (each private node is
  // modelled behind its own gateway).
  return IpAddr{0x52000000u | (id & 0x00ffffffu)};
}

std::size_t Network::pending_reassemblies(NodeId id) const {
  const NodeState* node = nodes_.find(id);
  return node == nullptr ? 0 : node->assemblies.size();
}

void Network::send(NodeId from, NodeId to, MessagePtr msg) {
  CROUPIER_ASSERT(msg != nullptr);
  NodeState& sender = nodes_.at(from, "sender not attached");

  // Serialization cost is charged here so it runs on the worker when the
  // parallel engine is active. One encode gives both the wire size and,
  // for a message over the mtu, the bytes to split.
  wire::Writer w;
  msg->encode(w);
  const std::size_t wire_bytes = w.size();

  // The sender's own gateway opens/refreshes a mapping toward `to`
  // regardless of whether the packet ultimately arrives. The box belongs
  // to the node this event is sharded on, so the mutation stays inline.
  if (sender.nat.has_value()) {
    sim::conflict::record_write(from, "Network: sender NAT box");
    sender.nat->on_outbound(simulator_.now(), to);
  }

  if (fragmenter_.needs_fragmentation(wire_bytes)) {
    // Split on the worker (pure sender-local work); the msg_id is
    // stamped by the serial half.
    auto frags = fragmenter_.split(0, w.data());
    if (!simulator_.deferring()) {
      finish_send_fragments(from, to, std::move(msg), std::move(frags));
      return;
    }
    simulator_.defer(sim::Call::to<&Network::send_fragments_op>(
        this, route(from, to), 0,
        std::make_shared<OutgoingFragments>(
            OutgoingFragments{std::move(msg), std::move(frags)})));
    return;
  }

  const std::size_t bytes = wire_bytes + kUdpIpHeaderBytes;
  if (!simulator_.deferring()) {
    // Sequential engine (or serial-affinity event): no deferred op — the
    // pre-parallel-engine hot path unchanged.
    finish_send(from, to, std::move(msg), bytes);
    return;
  }
  simulator_.defer(sim::Call::to<&Network::send_op>(this, route(from, to),
                                                    bytes, std::move(msg)));
}

void Network::send_op(sim::Call& op) {
  finish_send(route_from(op.a), route_to(op.a),
              std::static_pointer_cast<const Message>(std::move(op.payload)),
              op.b);
}

void Network::send_fragments_op(sim::Call& op) {
  // send() built this payload non-const and this op is its only owner,
  // so the fragments may be moved out.
  auto& out = *static_cast<OutgoingFragments*>(
      const_cast<void*>(op.payload.get()));
  finish_send_fragments(route_from(op.a), route_to(op.a), std::move(out.msg),
                        std::move(out.frags));
}

NatType Network::class_or_public(NodeId id) const {
  const NodeState* node = nodes_.find(id);
  return node == nullptr ? NatType::Public : node->cfg.nat_type();
}

double Network::loss_probability(NodeId from, NodeId to) const {
  if (loss_ == nullptr) return 0.0;
  // Class lookups are paid only for models that read them.
  return loss_class_sensitive_
             ? loss_->probability(simulator_.now(), class_or_public(from),
                                  class_or_public(to))
             : loss_->probability(simulator_.now(), NatType::Public,
                                  NatType::Public);
}

sim::Duration Network::bucket_delay(NodeId from, std::size_t bytes) {
  if (packet_.bandwidth_bps == 0) return 0;
  TokenBucket* bucket = buckets_.find(from);
  if (bucket == nullptr) {
    bucket = &buckets_.emplace(from, packet_.bandwidth_bps,
                               packet_.burst_bytes());
  }
  return bucket->charge(simulator_.now(), bytes);
}

void Network::finish_send(NodeId from, NodeId to, MessagePtr msg,
                          std::size_t bytes) {
  meter_.on_send(from, bytes);
  const sim::Duration queue_delay = bucket_delay(from, bytes);

  // One die roll per packet with a positive drop probability — and none
  // otherwise, exactly the draw pattern of the historic uniform scalar,
  // so pre-LossModel runs replay byte-identically.
  const double p = loss_probability(from, to);
  if (p > 0.0 && rng_.chance(p)) {
    ++drops_.loss;
    drops_.loss_bytes += bytes;
    return;
  }

  const sim::Duration delay = queue_delay + latency_->sample(from, to, rng_);
  const sim::Affinity affinity =
      delivery_affinity_ ? delivery_affinity_(to, *msg) : sim::kSerialAffinity;
  simulator_.post_after(delay, affinity,
                        sim::Call::to<&Network::deliver_event>(
                            this, route(from, to), bytes, std::move(msg)));
}

void Network::finish_send_fragments(NodeId from, NodeId to, MessagePtr msg,
                                    std::vector<Fragment> frags) {
  const std::uint64_t msg_id = next_msg_id_++;
  const double p = loss_probability(from, to);
  const sim::Affinity affinity =
      delivery_affinity_ ? delivery_affinity_(to, *msg) : sim::kSerialAffinity;
  for (auto& frag : frags) {
    frag.header.msg_id = msg_id;
    const std::size_t bytes = frag.wire_size() + kUdpIpHeaderBytes;
    meter_.on_send(from, bytes);
    ++drops_.fragments_sent;
    // The datagram leaves the sender's access link whether or not the
    // loss die downstream kills it, so the bucket is charged first.
    const sim::Duration queue_delay = bucket_delay(from, bytes);
    if (p > 0.0 && rng_.chance(p)) {
      ++drops_.loss;
      drops_.loss_bytes += bytes;
      ++drops_.fragments_lost;
      continue;
    }
    const sim::Duration delay =
        queue_delay + latency_->sample(from, to, rng_);
    simulator_.post_after(
        delay, affinity,
        sim::Call::to<&Network::fragment_event>(
            this, route(from, to), bytes,
            std::make_shared<const FragmentDelivery>(
                FragmentDelivery{msg, std::move(frag)})));
  }
}

template <Network::Count What>
void Network::count(NodeId to, std::uint32_t n) {
  if (!simulator_.deferring()) {
    // Sequential engine (or serial-affinity event): no deferred op.
    apply(What, to, n);
  } else {
    simulator_.defer(sim::Call::to<&Network::count_op>(
        this, (static_cast<std::uint64_t>(What) << 32) | to, n));
  }
}

void Network::count_op(sim::Call& op) {
  apply(static_cast<Count>(op.a >> 32), static_cast<NodeId>(op.a),
        static_cast<std::uint32_t>(op.b));
}

void Network::apply(Count what, NodeId to, std::uint32_t n) {
  switch (what) {
    case Count::DeadFragment:
      ++drops_.fragments_lost;
      [[fallthrough]];
    case Count::DeadReceiver:
      ++drops_.dead_receiver;
      drops_.dead_receiver_bytes += n;
      return;
    case Count::FilteredFragment:
      ++drops_.fragments_lost;
      [[fallthrough]];
    case Count::NatFiltered:
      ++drops_.nat_filtered;
      drops_.nat_filtered_bytes += n;
      return;
    case Count::Delivered:
      ++drops_.delivered;
      [[fallthrough]];
    case Count::FragmentDelivered:
      drops_.delivered_bytes += n;
      meter_.on_deliver(to, n);
      return;
    case Count::Reassembled:
      ++drops_.delivered;
      drops_.fragments_reassembled += n;
      return;
    case Count::Expired:
      drops_.fragments_expired += n;
      return;
  }
}

Network::NodeState* Network::admit(NodeId from, NodeId to,
                                   std::size_t bytes, bool fragment) {
  const auto n = static_cast<std::uint32_t>(bytes);
  NodeState* node = nodes_.find(to);
  if (node == nullptr) {
    fragment ? count<Count::DeadFragment>(to, n)
             : count<Count::DeadReceiver>(to, n);
    return nullptr;
  }
  if (node->nat.has_value() &&
      !node->nat->allows_inbound(simulator_.now(), from)) {
    fragment ? count<Count::FilteredFragment>(to, n)
             : count<Count::NatFiltered>(to, n);
    return nullptr;
  }
  fragment ? count<Count::FragmentDelivered>(to, n)
           : count<Count::Delivered>(to, n);
  return node;
}

void Network::deliver_event(sim::Call& ev) {
  deliver(route_from(ev.a), route_to(ev.a),
          *static_cast<const Message*>(ev.payload.get()), ev.b);
}

void Network::fragment_event(sim::Call& ev) {
  const auto& d = *static_cast<const FragmentDelivery*>(ev.payload.get());
  deliver_fragment(route_from(ev.a), route_to(ev.a), d.msg, d.frag, ev.b);
}

void Network::expire_event(sim::Call& ev) {
  expire_assembly(static_cast<NodeId>(ev.a), ev.b);
}

void Network::deliver(NodeId from, NodeId to, const Message& msg,
                      std::size_t bytes) {
  NodeState* node = admit(from, to, bytes, /*fragment=*/false);
  if (node == nullptr) return;
  sim::conflict::record_write(to, "Network: receiver handler dispatch");
  node->handler->on_message(from, msg);
}

void Network::deliver_fragment(NodeId from, NodeId to, const MessagePtr& msg,
                               const Fragment& frag, std::size_t bytes) {
  NodeState* node = admit(from, to, bytes, /*fragment=*/true);
  if (node == nullptr) return;

  // Reassembly buffers are the receiving node's own state (this event is
  // sharded on `to`, like its NAT box), so the mutation is inline.
  sim::conflict::record_write(to, "Network: reassembly buffers");
  auto& assemblies = node->assemblies;
  auto it = assemblies.find(frag.header.msg_id);
  if (it == assemblies.end()) {
    it = assemblies
             .emplace(frag.header.msg_id,
                      Assembly{FragmentAssembly(frag.header), msg})
             .first;
    // One GC event per entry, armed at first-fragment arrival (events
    // cannot be cancelled): if the message completes first, the entry
    // sits inert — suppressing late duplicates — until the timeout
    // sweeps it.
    const std::uint64_t msg_id = frag.header.msg_id;
    const sim::Affinity affinity = delivery_affinity_
                                       ? delivery_affinity_(to, *msg)
                                       : sim::kSerialAffinity;
    // detlint:allow(naked-schedule) the GC arm is deliberately
    // un-guarded: schedule_impl auto-defers it when this delivery runs
    // inside a parallel batch, and the event is harmless to replay late
    // (expire_assembly tolerates a completed entry).
    simulator_.post_after(
        packet_.reassembly_timeout, affinity,
        sim::Call::to<&Network::expire_event>(this, to, msg_id));
  }
  if (it->second.frags.add(frag.header, frag.payload)) {
    // This fragment completed the message: reconstruct the bytes (the
    // honest path — repair fragments really decode) and deliver the
    // carried message.
    const auto reassembled = it->second.frags.bytes();
    CROUPIER_ASSERT_MSG(reassembled.has_value() &&
                            reassembled->size() == frag.header.total_len,
                        "reassembly yielded the wrong byte count");
    count<Count::Reassembled>(
        to, static_cast<std::uint32_t>(it->second.frags.fragments_held()));
    node->handler->on_message(from, *it->second.msg);
  }
}

void Network::expire_assembly(NodeId to, std::uint64_t msg_id) {
  NodeState* node = nodes_.find(to);
  if (node == nullptr) return;  // node died; state already gone
  auto& assemblies = node->assemblies;
  const auto it = assemblies.find(msg_id);
  if (it == assemblies.end()) return;
  if (!it->second.frags.complete()) {
    count<Count::Expired>(
        to, static_cast<std::uint32_t>(it->second.frags.fragments_held()));
  }
  assemblies.erase(it);
}

std::string to_string(IpAddr ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip.v >> 24) & 0xff,
                (ip.v >> 16) & 0xff, (ip.v >> 8) & 0xff, ip.v & 0xff);
  return buf;
}

}  // namespace croupier::net
