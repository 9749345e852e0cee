// HostGauge: how fast the host runs right now.
//
// The benchmark shares its machine with other tenants, whose load slows
// the simulator by up to 2x for seconds to minutes at a time. The gauge
// is a fixed unit of work with a mix like the simulator's — hash-map
// lookups, scattered writes over a table larger than the caches, small
// shared allocations — written here, so no change to the program can
// change it. Timed next to each span of simulation, it measures the
// host's speed at that moment; run.py scales each span by (nominal gauge
// time / measured gauge time).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostGauge {
 public:
  /// Allocates and touches the gauge's memory (about 75 MiB).
  HostGauge();

  /// Host seconds of one unit of work on each of `lanes` threads at once
  /// (the slowest lane, as a parallel batch waits for its slowest shard).
  double measure(std::size_t lanes = 1);

  /// Resident memory the gauge added, in KiB (subtracted from peak RSS).
  [[nodiscard]] long resident_kib() const { return resident_kib_; }

 private:
  struct Slot {
    std::uint64_t words[8];
  };
  /// One unit of work; lane `lane` of `lanes` writes only its own slots.
  double run_lane(std::size_t lane, std::size_t lanes);

  std::vector<Slot> table_;
  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // read-only
  long resident_kib_ = 0;
};

/// Current resident set size of this process, in KiB.
long process_rss_kib();

}  // namespace perfbench
