// Per-node traffic accounting.
//
// The network charges every packet's full datagram size (payload encoded
// through wire/ plus UDP+IPv4 headers) to the sender at send time and to
// the receiver at delivery time. Figure 7a of the paper is regenerated by
// resetting the meter at the start of a measurement window and reading
// bytes-per-second per node class at its end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/address.hpp"

namespace croupier::net {

/// Fixed protocol overhead charged per packet (UDP 8 B + IPv4 20 B).
constexpr std::size_t kUdpIpHeaderBytes = 28;

struct TrafficTotals {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;

  /// Total load (both directions), the per-node quantity fig. 7a plots.
  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_sent + bytes_received;
  }
};

class TrafficMeter {
 public:
  void on_send(NodeId node, std::size_t bytes) {
    auto& t = slot(node);
    t.bytes_sent += bytes;
    ++t.msgs_sent;
  }

  void on_deliver(NodeId node, std::size_t bytes) {
    auto& t = slot(node);
    t.bytes_received += bytes;
    ++t.msgs_received;
  }

  /// Totals for one node (zeros if it never sent or received).
  [[nodiscard]] TrafficTotals totals(NodeId node) const {
    return node < per_node_.size() ? per_node_[node] : TrafficTotals{};
  }

  /// (id, totals) of every node charged since reset(), in ascending id
  /// order.
  [[nodiscard]] std::vector<std::pair<NodeId, TrafficTotals>> per_node()
      const {
    std::vector<std::pair<NodeId, TrafficTotals>> out;
    for (NodeId id = 0; id < per_node_.size(); ++id) {
      const TrafficTotals& t = per_node_[id];
      if (t.msgs_sent + t.msgs_received > 0) out.emplace_back(id, t);
    }
    return out;
  }

  /// True when nothing was charged since reset().
  [[nodiscard]] bool empty() const { return per_node_.empty(); }

  /// Starts a fresh measurement window.
  void reset() { per_node_.clear(); }

 private:
  TrafficTotals& slot(NodeId node) {
    if (node >= per_node_.size()) per_node_.resize(std::size_t{node} + 1);
    return per_node_[node];
  }

  /// Id-indexed, grown on charge: ids past the end had no traffic.
  std::vector<TrafficTotals> per_node_;
};

}  // namespace croupier::net
