// croupier-perfbench: one benchmark trial in one process.
//
//   croupier-perfbench --workload NAME --seed N [--trace 0|1]
//   croupier-perfbench --natid-churn-repro --seed N
//
// A trial builds run::World itself (Experiment takes no factory, and the
// traced run needs one): it sets the World up several times, then plays a
// warm-up span and a measured window in slices of a tenth of a round
// period, drives churn and recording at round boundaries, and times the
// host-speed gauge after every round. It prints one JSON object on
// stdout: the timings, the simulated results, a digest of the simulated
// outputs, the per-layer counters, and the failed output checks.
// perfbench/run.py runs the trials and judges them.
//
// All timing is taken here, around calls into each layer's public
// functions; with --trace 0 nothing is timed per call.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/croupier.hpp"
#include "metrics/estimation.hpp"
#include "metrics/randomness.hpp"
#include "metrics/stats.hpp"
#include "runtime/registry.hpp"
#include "runtime/spec.hpp"
#include "runtime/world.hpp"
#include "sim/rng.hpp"

#include "gauge.hpp"
#include "trace.hpp"

namespace {

using croupier::net::NodeId;
using croupier::run::World;
namespace sim = croupier::sim;
namespace net = croupier::net;
namespace metrics = croupier::metrics;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  const char* name;
  const char* protocol;  // ProtocolRegistry spec
  std::size_t nodes;
  double loss;           // uniform message loss
  std::size_t mtu;       // 0 = packet layer off
  bool parallel;         // world_jobs = min(4, hardware threads)
  double churn;          // fraction of nodes replaced per round
  std::uint64_t estimation_every_s;  // 0 = not recorded
  std::uint64_t randomness_every_s;  // 0 = one audit after the window
  std::uint64_t warmup_s;
  std::uint64_t window_s;
  /// Upper bound on the final mean |estimate - omega| (croupier only;
  /// twice the worst value, 0.025, seen over seeds 1-10 at the seed state).
  double max_est_avg_error;
};

constexpr double kRatio = 0.2;
constexpr int kSetups = 20;
constexpr std::uint64_t kSlicesPerRound = 10;

// Simulated spans are fixed so that a seed fixes every simulated output.
constexpr Workload kWorkloads[] = {
    {"croupier-seq", "croupier", 10000, 0.0, 0, false, 0.0, 1, 0, 20, 15,
     0.05},
    {"croupier-wj4", "croupier", 10000, 0.0, 0, true, 0.0, 1, 0, 20, 15,
     0.05},
    {"gozar-churn-packet", "gozar", 5000, 0.01, 64, false, 0.01, 0, 10, 20,
     20, 0.0},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- digest ---------------------------------------------------------------

/// FNV-1a over the simulated outputs; equal digests mean equal results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- process counters -----------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

struct TrafficSum {
  std::uint64_t bytes_sent = 0, msgs_sent = 0;
  std::uint64_t bytes_received = 0, msgs_received = 0;
};

TrafficSum traffic_sum(net::Network& network) {
  TrafficSum s;
  for (const auto& [id, t] : network.meter().per_node()) {
    s.bytes_sent += t.bytes_sent;
    s.msgs_sent += t.msgs_sent;
    s.bytes_received += t.bytes_received;
    s.msgs_received += t.msgs_received;
  }
  return s;
}

// ---- JSON output ----------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n') ? ' ' : c;
  }
  return quoted + "\"";
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) items.push_back(json_number(v));
  return json_array(items);
}

// ---- the trial ------------------------------------------------------------

class Trial {
 public:
  Trial(const Workload& w, std::uint64_t seed, bool traced)
      : w_(w),
        seed_(seed),
        traced_(traced),
        rng_(sim::RngStream(seed).fork(0xBE7C4)),
        world_jobs_(w.parallel ? std::min<std::size_t>(
                                     4, std::thread::hardware_concurrency())
                               : 1) {}

  std::string run();

 private:
  std::unique_ptr<World> make_world();
  void spawn_population(World& world);
  NodeId spawn(World& world, const net::NatConfig& cfg);
  void kill(World& world, NodeId id);
  void churn_step(World& world);
  void record(World& world, std::uint64_t t_s);
  metrics::RandomnessAuditor::Adjacency snapshot(World& world);
  double audit(World& world, std::uint64_t t_s);
  /// Host seconds of a played span: every slice, and the gauge after
  /// every round; and the process CPU seconds of the slices.
  struct Span {
    std::vector<double> slices_s;
    std::vector<double> gauge_s;
    double cpu_s = 0.0;
  };
  /// Plays (from_s, to_s] in slices of a tenth of a round period, with
  /// churn and recording at each round boundary.
  Span play(World& world, std::uint64_t from_s, std::uint64_t to_s);

  /// Runs f; when traced, appends and returns its host seconds.
  template <typename F>
  double timed(std::vector<double>& into, F&& f) {
    if (!traced_) {
      f();
      return 0.0;
    }
    const auto start = Clock::now();
    f();
    into.push_back(seconds_since(start));
    return into.back();
  }

  const Workload& w_;
  std::uint64_t seed_;
  bool traced_;
  sim::RngStream rng_;  // churn victims and spawn classes
  std::size_t world_jobs_;
  perfbench::HandlerTrace handlers_;
  perfbench::HostGauge gauge_;

  // Window bookkeeping: rounds each node had when the window opened.
  bool in_window_ = false;
  std::vector<std::uint64_t> base_rounds_;
  std::uint64_t killed_rounds_ = 0;
  std::size_t peak_nodes_ = 0;

  // Host seconds per traced call of the benchmark's own layer calls, and
  // their sums inside the window.
  std::vector<double> spawn_s_, kill_s_;
  std::vector<double> estimation_s_, snapshot_s_, randomness_s_;
  double window_runtime_s_ = 0.0;
  double window_metrics_s_ = 0.0;

  metrics::ErrorSeries estimation_;
  metrics::RandomnessAuditor auditor_;
  std::vector<metrics::RandomnessPoint> randomness_;
};

std::unique_ptr<World> Trial::make_world() {
  World::Config cfg;
  cfg.seed = seed_;
  cfg.latency = World::LatencyKind::King;
  cfg.loss = net::LossConfig::uniform(w_.loss);
  cfg.packet.mtu = w_.mtu;
  cfg.world_jobs = world_jobs_;
  auto factory =
      croupier::run::ProtocolRegistry::instance().make_from_spec(w_.protocol);
  if (traced_) {
    factory = perfbench::traced_factory(std::move(factory), handlers_);
  }
  return std::make_unique<World>(cfg, std::move(factory));
}

NodeId Trial::spawn(World& world, const net::NatConfig& cfg) {
  NodeId id = net::kNilNode;
  const double s = timed(spawn_s_, [&] { id = world.spawn(cfg); });
  if (in_window_) window_runtime_s_ += s;
  peak_nodes_ = std::max(peak_nodes_, world.alive_count());
  return id;
}

void Trial::kill(World& world, NodeId id) {
  if (in_window_) {
    killed_rounds_ += world.rounds_of(id) -
                      (id < base_rounds_.size() ? base_rounds_[id] : 0);
  }
  const double s = timed(kill_s_, [&] { world.kill(id); });
  if (in_window_) window_runtime_s_ += s;
}

void Trial::spawn_population(World& world) {
  // Exactly round(omega * n) publics, in an order drawn from the seed.
  const auto publics = static_cast<std::size_t>(
      std::llround(kRatio * static_cast<double>(w_.nodes)));
  std::vector<char> is_public(w_.nodes, 0);
  std::fill_n(is_public.begin(), publics, 1);
  sim::RngStream order = rng_.fork(0x5EED);
  for (std::size_t i = is_public.size(); i > 1; --i) {
    std::swap(is_public[i - 1], is_public[order.index(i)]);
  }
  for (const char pub : is_public) {
    spawn(world, pub ? net::NatConfig::open() : net::NatConfig::natted());
  }
}

void Trial::churn_step(World& world) {
  const auto quota = static_cast<std::size_t>(
      std::llround(w_.churn * static_cast<double>(world.alive_count())));
  for (std::size_t i = 0; i < quota; ++i) {
    const auto& alive = world.alive_ids();
    const NodeId victim = alive[rng_.index(alive.size())];
    const net::NatConfig cfg = world.nat_config_of(victim);
    kill(world, victim);
    spawn(world, cfg);  // replaced in kind, so omega stays fixed
  }
}

metrics::RandomnessAuditor::Adjacency Trial::snapshot(World& world) {
  metrics::RandomnessAuditor::Adjacency adjacency;
  adjacency.reserve(world.gossiping_count());
  world.for_each_sampler([&](NodeId id, croupier::pss::PeerSampler& s) {
    adjacency.emplace_back(id, s.out_neighbors());
  });
  return adjacency;
}

double Trial::audit(World& world, std::uint64_t t_s) {
  metrics::RandomnessAuditor::Adjacency adjacency;
  const double s = timed(snapshot_s_, [&] { adjacency = snapshot(world); });
  return s + timed(randomness_s_, [&] {
           randomness_.push_back(auditor_.observe(adjacency, world.class_map(),
                                                  world.true_ratio(),
                                                  static_cast<double>(t_s)));
         });
}

void Trial::record(World& world, std::uint64_t t_s) {
  double s = 0.0;
  if (w_.estimation_every_s > 0 && t_s % w_.estimation_every_s == 0) {
    s += timed(estimation_s_, [&] {
      metrics::ErrorPoint point;
      point.t_seconds = static_cast<double>(t_s);
      point.sample = metrics::estimation_errors(world.ratio_estimates(2),
                                                world.true_ratio());
      estimation_.push_back(point);
    });
  }
  if (w_.randomness_every_s > 0 && t_s % w_.randomness_every_s == 0) {
    s += audit(world, t_s);
  }
  if (in_window_) window_metrics_s_ += s;
}

Trial::Span Trial::play(World& world, std::uint64_t from_s,
                        std::uint64_t to_s) {
  Span span;
  for (std::uint64_t t = from_s + 1; t <= to_s; ++t) {
    for (std::uint64_t part = 1; part <= kSlicesPerRound; ++part) {
      const double cpu_start = cpu_seconds();
      const auto start = Clock::now();
      world.run_until(sim::sec(t - 1) + sim::sec(1) * part / kSlicesPerRound);
      if (part == kSlicesPerRound) {
        if (w_.churn > 0.0) churn_step(world);
        record(world, t);
      }
      span.slices_s.push_back(seconds_since(start));
      span.cpu_s += cpu_seconds() - cpu_start;
    }
    span.gauge_s.push_back(gauge_.measure(world_jobs_));
  }
  return span;
}

std::string Trial::run() {
  std::vector<std::string> checks;

  // Set-up, several times; the last World is the one that runs.
  std::vector<double> setup_s, setup_gauge_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    spawn_s_.clear();
    peak_nodes_ = 0;
    const auto start = Clock::now();
    world = make_world();
    spawn_population(*world);
    setup_s.push_back(seconds_since(start));
    setup_gauge_s.push_back(gauge_.measure());
  }

  // Warm-up: estimator caches fill and the overlay mixes.
  const Span warmup = play(*world, 0, w_.warmup_s);

  // Window start state.
  auto& network = world->network();
  const auto drops0 = network.drops();
  const auto traffic0 = traffic_sum(network);
  const std::uint64_t events0 = world->simulator().events_processed();
  const auto engine0 = world->engine_stats() != nullptr
                           ? *world->engine_stats()
                           : sim::ParallelExecutor::Stats{};
  const auto arena0 = world->view_arena().stats();
  for (const NodeId id : world->alive_ids()) {
    if (id >= base_rounds_.size()) base_rounds_.resize(id + 1, 0);
    base_rounds_[id] = world->rounds_of(id);
  }
  handlers_.reset();
  in_window_ = true;

  const Span window = play(*world, w_.warmup_s, w_.warmup_s + w_.window_s);
  in_window_ = false;
  // The window's own time: its slices, without the gauge between rounds.
  const auto& slice_s = window.slices_s;
  const double window_s =
      std::accumulate(slice_s.begin(), slice_s.end(), 0.0);

  // Window end state (untimed from here on).
  std::uint64_t node_rounds = killed_rounds_;
  std::uint64_t total_rounds = 0;
  for (const NodeId id : world->sorted_ids()) {
    const std::uint64_t r = world->rounds_of(id);
    total_rounds += r;
    node_rounds += r - (id < base_rounds_.size() ? base_rounds_[id] : 0);
  }
  const auto drops = network.drops();
  const TrafficSum traffic = traffic_sum(network);
  const std::uint64_t events = world->simulator().events_processed() - events0;
  const bool parallel_engine = world->engine_stats() != nullptr;
  const auto engine = parallel_engine ? *world->engine_stats()
                                      : sim::ParallelExecutor::Stats{};
  const auto arena = world->view_arena().stats();
  const auto handler = handlers_.merged();
  const std::size_t handler_threads = handlers_.active_threads();

  // Simulated results.
  if (w_.randomness_every_s == 0) audit(*world, w_.warmup_s + w_.window_s);
  const double chi2_z = randomness_.back().chi2_z;
  const double est_avg_error =
      estimation_.empty() ? 0.0 : estimation_.back().sample.avg_error;
  const auto overlay = snapshot(*world);
  const double window_sim_s = static_cast<double>(w_.window_s);
  const double traffic_per_node_s =
      static_cast<double>(traffic.bytes_sent - traffic0.bytes_sent) /
      (static_cast<double>(world->alive_count()) * window_sim_s);

  // Output checks.
  if (w_.max_est_avg_error > 0.0 && !(est_avg_error > 0.0 &&
                                      est_avg_error < w_.max_est_avg_error)) {
    checks.push_back("est_avg_error " + std::to_string(est_avg_error) +
                     " outside (0, " + std::to_string(w_.max_est_avg_error) +
                     ")");
  }
  if (w_.parallel) {
    if (world_jobs_ < 2) {
      checks.push_back("fewer than 2 hardware threads: no parallel engine");
    } else if (!parallel_engine || engine.batches == engine0.batches) {
      checks.push_back("parallel engine absent or ran no batch");
    } else if (traced_ && handler_threads < 2) {
      checks.push_back("handlers ran on " + std::to_string(handler_threads) +
                       " thread(s): the run fell back to one shard");
    }
  }

  Digest digest;
  digest.add(world->simulator().events_processed());
  digest.add(total_rounds);
  for (const std::uint64_t v :
       {drops.loss, drops.nat_filtered, drops.dead_receiver, drops.delivered,
        drops.loss_bytes, drops.nat_filtered_bytes, drops.dead_receiver_bytes,
        drops.delivered_bytes, drops.fragments_sent, drops.fragments_lost,
        drops.fragments_reassembled, drops.fragments_expired,
        traffic.bytes_sent, traffic.msgs_sent, traffic.bytes_received,
        traffic.msgs_received}) {
    digest.add(v);
  }
  for (const auto& p : estimation_) {
    digest.add(p.t_seconds);
    digest.add(p.sample.avg_error);
    digest.add(p.sample.max_error);
    digest.add(p.sample.truth);
    digest.add(static_cast<std::uint64_t>(p.sample.node_count));
  }
  for (const auto& p : randomness_) {
    for (const double v : {p.t_seconds, p.chi2, p.chi2_z, p.repeat_observed,
                           p.repeat_expected, p.repeat_ratio,
                           p.public_fraction, p.public_expected,
                           p.bias_ratio}) {
      digest.add(v);
    }
    digest.add(static_cast<std::uint64_t>(p.nodes));
    digest.add(p.edges_observed);
  }
  for (const auto& [id, out] : overlay) {
    digest.add(static_cast<std::uint64_t>(id));
    for (const NodeId n : out) digest.add(static_cast<std::uint64_t>(n));
  }

  // Per-layer counters of the window.
  const auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  const double rounds_d = std::max(1.0, static_cast<double>(node_rounds));
  const double handler_s =
      1e-9 * static_cast<double>(handler.round.total_ns +
                                 handler.on_message.total_ns);
  const double msgs = d(traffic.msgs_sent, traffic0.msgs_sent);
  const double bytes = d(traffic.bytes_sent, traffic0.bytes_sent);
  const double frag_sent = d(drops.fragments_sent, drops0.fragments_sent);
  const double batches = d(engine.batches, engine0.batches);
  const double batched = d(engine.batched_events, engine0.batched_events);
  const double serial = d(engine.serial_events, engine0.serial_events);

  double est_entries = 0.0, est_max = 0.0, est_bytes = 0.0, est_nodes = 0.0;
  world->for_each_sampler([&](NodeId, croupier::pss::PeerSampler& s) {
    const auto* c =
        dynamic_cast<const croupier::core::Croupier*>(&perfbench::unwrap(s));
    if (c == nullptr) return;
    const auto& est = c->estimator();
    const auto n = static_cast<double>(est.cached_count());
    est_entries += n;
    est_max = std::max(est_max, n);
    est_bytes += static_cast<double>(est.cached().capacity() *
                                     sizeof(croupier::core::EstimateEntry));
    est_nodes += 1.0;
  });

  // A node whose view is empty right now may be waiting for the reply to
  // the shuffle that took its last entry; its next round re-bootstraps
  // it. So the check plays one more round (after every output above is
  // taken) and fails on the nodes still without an out-neighbour.
  std::vector<NodeId> empty_view;
  for (const auto& [id, out] : overlay) {
    if (out.empty()) empty_view.push_back(id);
  }
  if (!empty_view.empty()) {
    world->run_for(sim::sec(1));
    const auto still = std::count_if(
        empty_view.begin(), empty_view.end(), [&](NodeId id) {
          const auto* s = world->sampler(id);
          return s != nullptr && s->out_neighbors().empty();
        });
    if (still > 0) {
      checks.push_back(std::to_string(still) +
                       " gossiping nodes have no out-neighbour");
    }
  }
  const auto ms_p50 = [](const std::vector<double>& s) {
    return metrics::percentile(s, 0.5) * 1e3;
  };
  const auto us_q = [](const std::vector<double>& s, double q) {
    return metrics::percentile(s, q) * 1e6;
  };

  JsonObject layers;
  layers.num("sim.events", static_cast<double>(events))
      .num("sim.events_per_node_round", static_cast<double>(events) / rounds_d)
      .num("sim.events_per_s", static_cast<double>(events) / window_s)
      .num("sim.slice_ms_p50", metrics::percentile(slice_s, 0.5) * 1e3)
      .num("sim.slice_ms_p90", metrics::percentile(slice_s, 0.9) * 1e3)
      .num("sim.residual_s", window_s - handler_s - window_runtime_s_ -
                                 window_metrics_s_)
      .num("sim.engine.batches", batches)
      .num("sim.engine.mean_batch", batches > 0 ? batched / batches : 0.0)
      .num("sim.engine.max_batch", static_cast<double>(engine.max_batch))
      .num("sim.engine.serial_events", serial)
      .num("sim.engine.batched_frac",
           batched + serial > 0 ? batched / (batched + serial) : 0.0)
      .num("sim.cpu_per_wall", window.cpu_s / window_s)
      .num("pss.round.calls", static_cast<double>(handler.round.calls))
      .num("pss.round.s", static_cast<double>(handler.round.total_ns) * 1e-9)
      .num("pss.round.ns_p50",
           metrics::percentile(handler.round.samples_ns, .5))
      .num("pss.round.ns_p99",
           metrics::percentile(handler.round.samples_ns, .99))
      .num("pss.on_message.calls",
           static_cast<double>(handler.on_message.calls))
      .num("pss.on_message.s",
           static_cast<double>(handler.on_message.total_ns) * 1e-9)
      .num("pss.on_message.ns_p50",
           metrics::percentile(handler.on_message.samples_ns, .5))
      .num("pss.on_message.ns_p99",
           metrics::percentile(handler.on_message.samples_ns, .99))
      .num("pss.handler_frac", handler_s / window_s)
      .num("core.estimator.entries_mean",
           est_nodes > 0 ? est_entries / est_nodes : 0.0)
      .num("core.estimator.entries_max", est_max)
      .num("core.estimator.capacity_bytes", est_bytes)
      .num("pss.view_arena.live_bytes", static_cast<double>(arena.live_bytes))
      .num("pss.view_arena.slab_bytes", static_cast<double>(arena.slab_bytes))
      .num("pss.view_arena.reuses", d(arena.reuses, arena0.reuses))
      .num("net.msgs_sent", msgs)
      .num("net.delivered", d(drops.delivered, drops0.delivered))
      .num("net.delivered_frac",
           bytes > 0 ? d(drops.delivered_bytes, drops0.delivered_bytes) / bytes
                     : 0.0)
      .num("net.drop.loss", d(drops.loss, drops0.loss))
      .num("net.drop.nat_filtered", d(drops.nat_filtered, drops0.nat_filtered))
      .num("net.drop.dead_receiver",
           d(drops.dead_receiver, drops0.dead_receiver))
      .num("net.msgs_per_node_round", msgs / rounds_d)
      .num("net.bytes_per_msg", msgs > 0 ? bytes / msgs : 0.0)
      .num("net.fragments_sent", frag_sent)
      .num("net.fragments_reassembled",
           d(drops.fragments_reassembled, drops0.fragments_reassembled))
      .num("net.fragments_expired",
           d(drops.fragments_expired, drops0.fragments_expired))
      .num("net.fragment_useful_frac",
           frag_sent > 0 ? d(drops.fragments_reassembled,
                             drops0.fragments_reassembled) /
                               frag_sent
                         : 0.0)
      .num("runtime.spawn.calls", static_cast<double>(spawn_s_.size()))
      .num("runtime.spawn.us_p50", us_q(spawn_s_, 0.5))
      .num("runtime.spawn.us_p99", us_q(spawn_s_, 0.99))
      .num("runtime.kill.calls", static_cast<double>(kill_s_.size()))
      .num("runtime.kill.us_p50", us_q(kill_s_, 0.5))
      .num("runtime.kill.us_p99", us_q(kill_s_, 0.99))
      .num("metrics.estimation.ms_p50", ms_p50(estimation_s_))
      .num("metrics.snapshot.ms_p50", ms_p50(snapshot_s_))
      .num("metrics.randomness.ms_p50", ms_p50(randomness_s_));

  std::vector<std::string> check_items;
  for (const auto& c : checks) check_items.push_back(json_string(c));

  JsonObject out;
  out.str("workload", w_.name)
      .num("seed", static_cast<double>(seed_))
      .num("trace", traced_ ? 1 : 0)
      .num("world_jobs", static_cast<double>(world_jobs_))
      .num("handler_threads", static_cast<double>(handler_threads))
      .str("digest", digest.hex())
      .raw("setup_s", json_numbers(setup_s))
      .raw("setup_gauge_s", json_numbers(setup_gauge_s))
      .raw("warmup_slices_s", json_numbers(warmup.slices_s))
      .raw("warmup_gauge_s", json_numbers(warmup.gauge_s))
      .raw("window_slices_s", json_numbers(slice_s))
      .raw("window_gauge_s", json_numbers(window.gauge_s))
      .num("window_s", window_s)
      .num("node_rounds", static_cast<double>(node_rounds))
      .num("peak_rss_kib",
           static_cast<double>(peak_rss_kib() - gauge_.resident_kib()))
      .num("peak_nodes", static_cast<double>(peak_nodes_))
      .num("traffic_bytes_per_node_s", traffic_per_node_s)
      .num("est_avg_error", est_avg_error)
      .num("indegree_chi2_z", chi2_z)
      .raw("layers", layers.text())
      .raw("checks", json_array(check_items));
  return out.text();
}

/// The known natid+churn defect, as croupier-lab reproduces it:
///   croupier-lab --protocol=gozar --nodes=2000 --join=instant --natid
///     --churn=0.01 --churn-at=20 --duration=60 --record=randomness
int natid_churn_repro(std::uint64_t seed) {
  const auto spec = croupier::run::ExperimentSpec::parse(
      "protocol=gozar nodes=2000 ratio=0.2 join=instant churn=0.01 "
      "churn-at=20 natid=1 duration=60 record=randomness");
  croupier::run::Experiment experiment(spec, seed);
  experiment.run();
  std::printf("%s\n", JsonObject()
                          .str("workload", "natid-churn-repro")
                          .num("seed", static_cast<double>(seed))
                          .raw("checks", "[]")
                          .text()
                          .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: croupier-perfbench --workload NAME --seed N "
               "[--trace 0|1]\n"
               "       croupier-perfbench --natid-churn-repro --seed N\n"
               "workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool repro = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--trace") {
        traced = std::stoi(value()) != 0;
      } else if (arg == "--natid-churn-repro") {
        repro = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "croupier-perfbench: %s\n", e.what());
    return usage();
  }
  if (!have_seed) return usage();
  if (repro) return natid_churn_repro(seed);
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage();

  Trial trial(*w, seed, traced);
  std::printf("%s\n", trial.run().c_str());
  return 0;
}
