// Id-indexed per-node storage. Node ids are dense and never reused, so a
// vector indexed by id replaces a hash map; the member names are the
// map's. A lookup never grows the table, so any id past the end
// (kNilNode included) is absent. emplace() may reallocate: no reference
// to a slot may be held across it.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/address.hpp"

namespace croupier::net {

template <typename T>
class IdTable {
 public:
  [[nodiscard]] T* find(NodeId id) {
    return id < slots_.size() && slots_[id] ? &*slots_[id] : nullptr;
  }
  [[nodiscard]] const T* find(NodeId id) const {
    return const_cast<IdTable*>(this)->find(id);
  }
  [[nodiscard]] bool contains(NodeId id) const { return find(id) != nullptr; }
  /// The entry at `id`, which must be present (asserts with `what`).
  [[nodiscard]] T& at(NodeId id, const char* what = "id not present") {
    T* entry = find(id);
    CROUPIER_ASSERT_MSG(entry != nullptr, what);
    return *entry;
  }
  [[nodiscard]] const T& at(NodeId id,
                            const char* what = "id not present") const {
    return const_cast<IdTable*>(this)->at(id, what);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  template <typename... Args>
  T& emplace(NodeId id, Args&&... args) {
    CROUPIER_ASSERT_MSG(id != kNilNode, "kNilNode has no slot");
    if (id >= slots_.size()) slots_.resize(std::size_t{id} + 1);
    CROUPIER_ASSERT_MSG(!slots_[id], "id already present");
    ++size_;
    return slots_[id].emplace(std::forward<Args>(args)...);
  }

  /// Empties slot `id`; false if it was empty.
  bool erase(NodeId id) {
    if (!contains(id)) return false;
    slots_[id].reset();
    --size_;
    return true;
  }

 private:
  std::vector<std::optional<T>> slots_;
  std::size_t size_ = 0;
};

}  // namespace croupier::net
