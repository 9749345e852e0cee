#include "net/bootstrap.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace croupier::net {

void BootstrapServer::add(NodeId id, NatType type) {
  CROUPIER_ASSERT_MSG(!index_.contains(id), "node registered twice");
  Positions& pos = index_.emplace(id, Positions{all_.size(), kNotPublic});
  all_.push_back(id);
  if (type == NatType::Public) {
    pos.pub = publics_.size();
    publics_.push_back(id);
  }
}

void BootstrapServer::remove(NodeId id) {
  const Positions* found = index_.find(id);
  if (found == nullptr) return;
  // Swap-with-last, re-pointing the moved id's `field` at slot i.
  const auto swap_remove = [this](std::vector<NodeId>& pool, std::size_t i,
                                  std::size_t Positions::*field) {
    pool[i] = pool.back();
    index_.at(pool[i]).*field = i;
    pool.pop_back();
  };
  const Positions pos = *found;
  swap_remove(all_, pos.all, &Positions::all);
  if (pos.pub != kNotPublic) swap_remove(publics_, pos.pub, &Positions::pub);
  index_.erase(id);
}

std::vector<NodeId> BootstrapServer::sample_from(
    const std::vector<NodeId>& pool, std::size_t n, NodeId self,
    sim::RngStream& rng) {
  std::vector<NodeId> picked =
      rng.sample(std::span<const NodeId>(pool), n + 1);
  std::erase(picked, self);
  if (picked.size() > n) picked.resize(n);
  return picked;
}

std::vector<NodeId> BootstrapServer::sample_public(
    std::size_t n, NodeId self, sim::RngStream& rng) const {
  return sample_from(publics_, n, self, rng);
}

std::vector<NodeId> BootstrapServer::sample_any(std::size_t n, NodeId self,
                                                sim::RngStream& rng) const {
  return sample_from(all_, n, self, rng);
}

}  // namespace croupier::net
