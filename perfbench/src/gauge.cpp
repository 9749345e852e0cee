#include "gauge.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t kTableSlots = std::size_t{1} << 20;  // 64 MiB
constexpr std::uint32_t kIndexKeys = 1u << 18;
constexpr std::uint32_t kKeyStride = 7919;
constexpr int kSteps = 60000;

}  // namespace

long process_rss_kib() {
  long pages_total = 0, pages_resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return pages_resident * (sysconf(_SC_PAGESIZE) / 1024);
}

HostGauge::HostGauge() {
  const long before = process_rss_kib();
  table_.assign(kTableSlots, Slot{});
  index_.reserve(kIndexKeys);
  for (std::uint32_t i = 0; i < kIndexKeys; ++i) {
    index_.emplace(i * kKeyStride, i);
  }
  resident_kib_ = process_rss_kib() - before;
}

double HostGauge::run_lane(std::size_t lane, std::size_t lanes) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL + lane;
  std::uint64_t sink = 0;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto key = static_cast<std::uint32_t>(x % kIndexKeys) * kKeyStride;
    const std::uint32_t hashed = index_.find(key)->second * 2654435761u;
    std::size_t slot = hashed & (kTableSlots - 1);
    slot = slot - slot % lanes + lane;
    if (slot >= kTableSlots) slot -= lanes;
    Slot& s = table_[slot];
    s.words[x & 7] += x;
    sink += s.words[(x >> 3) & 7];
    if ((i & 15) == 0) {
      const auto v =
          std::make_shared<std::vector<std::uint32_t>>(8 + (x & 31), hashed);
      sink += v->size();
    }
  }
  table_[lane].words[0] += sink;  // keeps the loop observable
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double HostGauge::measure(std::size_t lanes) {
  if (lanes <= 1) return run_lane(0, 1);
  std::vector<double> seconds(lanes, 0.0);
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    threads.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([this, &seconds, lane, lanes] {
        seconds[lane] = run_lane(lane, lanes);
      });
    }
  }
  return *std::max_element(seconds.begin(), seconds.end());
}

}  // namespace perfbench
