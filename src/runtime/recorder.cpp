#include "runtime/recorder.hpp"

#include "common/assert.hpp"

namespace croupier::run {

namespace {

constexpr Column kEstimationColumns[] = {
    {"avg-error", "%.6f", Summary::SteadyMean, "avg-err", "%.5f"},
    {"max-error", "%.6f", Summary::SteadyMean, "max-err", "%.5f"},
};

constexpr Column kGraphColumns[] = {
    {"avg-path-length", "%.4f", Summary::Final, "apl", "%.3f"},
    {"clustering-coefficient", "%.5f", Summary::Final, "cc", "%.4f"},
};

constexpr Column kSampledGraphColumns[] = {
    {"avg-path-length", "%.4f", Summary::Final, "apl", "%.3f"},
    {"clustering-coefficient", "%.5f", Summary::Final, "cc", "%.4f"},
    {"in-degree-cv", "%.4f"},
    {"largest-component", "%.4f", Summary::Final, "largest-component",
     "%.4f"},
};

/// The three normalized statistics whose honest-case expectations are
/// known in closed form (chi2 z ~ 0, repeat ratio ~ 1, bias ratio ~ 1).
constexpr Column kRandomnessColumns[] = {
    {"indegree-chi2-z", "%.4f", Summary::Final, "chi2-z", "%.3f"},
    {"repeat-ratio", "%.4f", Summary::Final, "repeat-ratio", "%.4f"},
    {"bias-ratio", "%.4f", Summary::Final, "bias-ratio", "%.4f"},
};

}  // namespace

Recorder::Recorder(World& world, sim::Duration interval,
                   std::span<const Column> columns)
    : world_(world), interval_(interval), columns_(columns) {
  CROUPIER_ASSERT(interval_ > 0);
}

void Recorder::start(sim::SimTime at) {
  arming_.arm();
  world_.simulator().schedule_at(at, arming_.guard([this] { tick(); }));
}

void Recorder::tick() {
  record_sample();
  world_.simulator().schedule_after(interval_,
                                    arming_.guard([this] { tick(); }));
}

EstimationRecorder::EstimationRecorder(World& world, Options opt)
    : SeriesRecorder(world, opt.interval, kEstimationColumns), opt_(opt) {}

void EstimationRecorder::record_sample() {
  const auto estimates = world_.ratio_estimates(opt_.min_rounds);
  metrics::ErrorPoint point;
  point.t_seconds = sim::to_seconds(world_.simulator().now());
  point.sample = metrics::estimation_errors(estimates, world_.true_ratio());
  series_.push_back(point);
}

GraphStatsRecorder::GraphStatsRecorder(World& world, Options opt)
    : SeriesRecorder(world, opt.interval, kGraphColumns),
      opt_(opt),
      rng_(world.scenario_rng().fork(0x6EA9)) {}

void GraphStatsRecorder::record_sample() {
  const auto graph = world_.snapshot_overlay();
  GraphStatsPoint point;
  point.t_seconds = sim::to_seconds(world_.simulator().now());
  point.nodes = graph.node_count();
  point.edges = graph.edge_count();
  point.avg_path_length = graph.avg_path_length(
      rng_, opt_.path_length_sources, &point.unreachable_fraction);
  point.clustering_coefficient = graph.avg_clustering_coefficient();
  series_.push_back(point);
}

SampledGraphStatsRecorder::SampledGraphStatsRecorder(World& world,
                                                     Options opt)
    : SeriesRecorder(world, opt.interval, kSampledGraphColumns),
      rng_(world.scenario_rng().fork(0x6EAB)),
      estimator_(opt.estimator),
      kill_epoch_(world.kill_count()) {}

void SampledGraphStatsRecorder::record_sample() {
  if (world_.kill_count() != kill_epoch_) {
    kill_epoch_ = world_.kill_count();
    estimator_.reset_accumulators();
  }

  const auto neighbors = [this](net::NodeId id,
                                std::vector<net::NodeId>& out) {
    const auto* s = world_.sampler(id);
    if (s == nullptr) return false;
    out = s->out_neighbors();
    return true;
  };
  const auto is_vertex = [this](net::NodeId id) {
    return world_.sampler(id) != nullptr;
  };

  Point point = estimator_.tick(
      std::span<const net::NodeId>(world_.alive_ids()),
      world_.gossiping_count(), neighbors, is_vertex, rng_);
  point.t_seconds = sim::to_seconds(world_.simulator().now());
  series_.push_back(point);
}

RandomnessAuditRecorder::RandomnessAuditRecorder(World& world, Options opt)
    : SeriesRecorder(world, opt.interval, kRandomnessColumns) {}

void RandomnessAuditRecorder::record_sample() {
  metrics::RandomnessAuditor::Adjacency adjacency;
  adjacency.reserve(world_.gossiping_count());
  for (const net::NodeId id : world_.sorted_ids()) {
    const auto* s = world_.sampler(id);
    if (s == nullptr) continue;
    adjacency.emplace_back(id, s->out_neighbors());
  }
  auto point = auditor_.observe(adjacency, world_.class_map(),
                                world_.true_ratio(),
                                sim::to_seconds(world_.simulator().now()));
  series_.push_back(point);
}

}  // namespace croupier::run
