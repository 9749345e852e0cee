// Periodic metric recorders driven by the simulation clock.
//
// EstimationRecorder samples the estimation error series of figures 1-5;
// GraphStatsRecorder samples the randomness series of figure 6(b)/(c).
// Both follow the paper's measurement hygiene: nodes that have executed
// fewer than two gossip rounds are excluded ("giving them enough time to
// initialize their estimates").
//
// SampledGraphStatsRecorder is the million-node variant of
// GraphStatsRecorder: instead of materializing the full overlay every
// tick it runs the O(sample) streaming estimators (metrics/streaming)
// against the implicit graph. Selected with record=graph-sampled.
//
// Every recorder is a Recorder: besides its typed series it yields the
// series as named columns, each with its print format and summary rule,
// which is all croupier-lab needs to fold and print any record kind.
#pragma once

#include <span>
#include <vector>

#include "metrics/estimation.hpp"
#include "metrics/randomness.hpp"
#include "metrics/streaming.hpp"
#include "runtime/arming.hpp"
#include "runtime/world.hpp"

namespace croupier::run {

/// How a column condenses into the one scalar a sweep point reports.
enum class Summary : std::uint8_t {
  None,        // series only
  SteadyMean,  // mean of the steady-state tail, reported as "steady NAME"
  Final,       // last sample, reported as "final NAME"
};

/// One value column of a recorder's output.
struct Column {
  const char* name;    // series label suffix, e.g. "avg-error"
  const char* format;  // printf format of one value
  Summary summary = Summary::None;
  const char* summary_name = nullptr;    // e.g. "avg-err"
  const char* summary_format = nullptr;  // printf format of the summary
};

/// A recorded series as columns: sample times plus one vector per Column.
struct ColumnTable {
  std::vector<double> t;
  std::vector<std::vector<double>> values;
};

/// A periodic sampler on the simulation clock: the first sample at
/// start(at), then one every interval until stop(). Its ticks are
/// guarded like a scenario process's events: a stopped, restarted or
/// destroyed recorder's queued tick fires as a no-op.
class Recorder {
 public:
  Recorder(World& world, sim::Duration interval,
           std::span<const Column> columns);
  virtual ~Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Arms the tick chain at `at`. Must not be running; a stopped
  /// recorder may be started again and appends to the same series.
  void start(sim::SimTime at);
  void stop() { arming_.disarm(); }
  [[nodiscard]] bool running() const { return arming_.armed(); }
  [[nodiscard]] sim::Duration interval() const { return interval_; }

  /// The value columns, in output order.
  [[nodiscard]] std::span<const Column> columns() const { return columns_; }
  /// The series so far; `values[i]` belongs to `columns()[i]`.
  [[nodiscard]] virtual ColumnTable table() const = 0;

 protected:
  /// Takes one sample at the current simulated time.
  virtual void record_sample() = 0;

  World& world_;

 private:
  void tick();

  sim::Duration interval_;
  std::span<const Column> columns_;
  Arming arming_;
};

/// A Recorder keeping one Point per sample.
template <typename Point>
class SeriesRecorder : public Recorder {
 public:
  [[nodiscard]] const std::vector<Point>& series() const { return series_; }

  /// The last recorded point (empty-series safe: returns zeros).
  [[nodiscard]] Point latest() const {
    return series_.empty() ? Point{} : series_.back();
  }

  [[nodiscard]] ColumnTable table() const final {
    ColumnTable out{{}, std::vector<std::vector<double>>(columns().size())};
    for (const Point& p : series_) {
      out.t.push_back(p.t_seconds);
      const std::vector<double> row = values(p);
      for (std::size_t c = 0; c < row.size(); ++c) {
        out.values[c].push_back(row[c]);
      }
    }
    return out;
  }

 protected:
  using Recorder::Recorder;

  /// One sample's values, in columns() order.
  [[nodiscard]] virtual std::vector<double> values(const Point& p) const = 0;

  std::vector<Point> series_;
};

struct EstimationRecorderOptions {
  sim::Duration interval = sim::sec(1);
  std::uint64_t min_rounds = 2;
};

class EstimationRecorder : public SeriesRecorder<metrics::ErrorPoint> {
 public:
  using Options = EstimationRecorderOptions;

  EstimationRecorder(World& world, Options opt = {});

 private:
  void record_sample() override;
  [[nodiscard]] std::vector<double> values(
      const metrics::ErrorPoint& p) const override {
    return {p.sample.avg_error, p.sample.max_error};
  }

  Options opt_;
};

/// One timestamped snapshot of overlay randomness metrics.
struct GraphStatsPoint {
  double t_seconds = 0.0;
  double avg_path_length = 0.0;
  double clustering_coefficient = 0.0;
  double unreachable_fraction = 0.0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

struct GraphStatsRecorderOptions {
  sim::Duration interval = sim::sec(10);
  /// BFS sources for path length (0 = exact all-pairs).
  std::size_t path_length_sources = 128;
};

class GraphStatsRecorder : public SeriesRecorder<GraphStatsPoint> {
 public:
  using Options = GraphStatsRecorderOptions;

  GraphStatsRecorder(World& world, Options opt = {});

 private:
  void record_sample() override;
  [[nodiscard]] std::vector<double> values(
      const GraphStatsPoint& p) const override {
    return {p.avg_path_length, p.clustering_coefficient};
  }

  Options opt_;
  sim::RngStream rng_;
};

struct SampledGraphStatsRecorderOptions {
  sim::Duration interval = sim::sec(10);
  metrics::StreamingGraphConfig estimator;
};

/// Periodic O(sample) overlay-randomness sampling for worlds too large
/// to snapshot. Cross-tick accumulators (in-degree hits, component
/// tracking) reset automatically when nodes die — the observations
/// describe a graph that no longer exists.
class SampledGraphStatsRecorder
    : public SeriesRecorder<metrics::StreamingGraphStats> {
 public:
  using Options = SampledGraphStatsRecorderOptions;
  using Point = metrics::StreamingGraphStats;

  SampledGraphStatsRecorder(World& world, Options opt = {});

 private:
  void record_sample() override;
  [[nodiscard]] std::vector<double> values(const Point& p) const override {
    return {p.avg_path_length, p.clustering_coefficient, p.in_degree_cv,
            p.largest_component_fraction};
  }

  sim::RngStream rng_;
  metrics::StreamingGraphEstimator estimator_;
  std::uint64_t kill_epoch_ = 0;
};

struct RandomnessRecorderOptions {
  sim::Duration interval = sim::sec(10);
};

/// Periodic statistical randomness audit (record=randomness): feeds the
/// live overlay snapshot to a metrics::RandomnessAuditor and records the
/// chi-square / lag-1 / class-bias point per tick. Draws no randomness
/// itself — the estimators are closed-form over the snapshot — so the
/// series is a pure function of the overlay trajectory. Departed nodes
/// are pruned by the auditor, not by epoch reset: under the eclipse and
/// churn scenarios the *surviving* population's accumulated skew is
/// exactly the signal.
class RandomnessAuditRecorder
    : public SeriesRecorder<metrics::RandomnessPoint> {
 public:
  using Options = RandomnessRecorderOptions;

  RandomnessAuditRecorder(World& world, Options opt = {});

 private:
  void record_sample() override;
  [[nodiscard]] std::vector<double> values(
      const metrics::RandomnessPoint& p) const override {
    return {p.chi2_z, p.repeat_ratio, p.bias_ratio};
  }

  metrics::RandomnessAuditor auditor_;
};

}  // namespace croupier::run
