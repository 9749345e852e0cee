// Shared plumbing for the figure-regeneration benches and croupier-lab:
// flag parsing, paper-default experiment specs, the sweep (parallel
// trial fan-out plus the one fold over recorder tables), and
// series/table printing.
//
// Every bench binary regenerates one figure of the paper and prints the
// same rows/series the figure plots. Flags:
//   --runs=N   independent seeds averaged per data point (default 2 to
//              keep the full-suite wall clock modest; the paper averaged
//              5 — pass --runs=5 for publication-grade smoothing). With
//              --runs>1 every series row carries a third column: the
//              across-runs standard deviation (gnuplot errorbars).
//   --seed=S   base seed (default 1)
//   --jobs=N   total worker-thread budget (default: hardware
//              concurrency). Output is byte-identical for every N.
//   --world-jobs=N  workers *inside* each trial World (the
//              round-synchronous parallel engine; default 1). The trial
//              pool divides --jobs by this so trial-level and
//              world-level parallelism share one core budget. Output is
//              byte-identical for every N.
//   --csv=PATH mirror every emitted data point into a CSV file
//   --fast     shrink scale for smoke-testing (CI-friendly)
// Unknown flags warn on stderr (a typo like --run=5 must be visible, not
// silently revert to the default).
//
// Experiments are declarative: a bench builds one run::ExperimentSpec
// value per sweep point (paper_spec plus field assignments; protocol
// chosen by ProtocolRegistry name, e.g. "croupier:alpha=25,gamma=50")
// and fans the runs x points trial grid out on exp::TrialPool. The
// per-trial seed is derived with exp::trial_seed, never by ad-hoc seed
// arithmetic, so growing --runs or reordering sweep points cannot make
// trials share a seed lineage. Benches that plot a recorder's series
// (figs 1-5, croupier-lab) fold and print them through run_sweep and
// emit; the others fold their own per-trial results from run_trial_grid.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/memory.hpp"
#include "exp/seeds.hpp"
#include "exp/sink.hpp"
#include "exp/trial_pool.hpp"
#include "runtime/recorder.hpp"
#include "runtime/registry.hpp"
#include "runtime/spec.hpp"
#include "runtime/world.hpp"
#include "sim/parallel_executor.hpp"

namespace croupier::bench {

/// True when this binary was compiled under any sanitizer. Detection is
/// belt-and-braces: the build system defines CROUPIER_SANITIZED whenever
/// -fsanitize appears in the flags (gcc has no UBSan macro), gcc defines
/// __SANITIZE_ADDRESS__/__SANITIZE_THREAD__ itself, and clang exposes
/// __has_feature. Sanitized timings are 2-20x off; they must never be
/// mistaken for a performance baseline.
[[nodiscard]] constexpr bool built_with_sanitizer() {
#if defined(CROUPIER_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

struct BenchArgs {
  std::size_t runs = 2;
  std::uint64_t seed = 1;
  std::size_t jobs = 0;        // 0 = hardware concurrency
  std::size_t world_jobs = 1;  // workers inside each trial World
  std::string csv;             // empty = no CSV mirror
  bool fast = false;

  /// The trial pool's worker count: --jobs is the *total* core budget,
  /// and every trial World consumes world_jobs of it, so trial-level and
  /// world-level parallelism compose instead of oversubscribing.
  [[nodiscard]] std::size_t trial_jobs() const {
    const std::size_t total =
        jobs != 0 ? jobs
                  : std::max<std::size_t>(
                        1, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1,
                                 total / std::max<std::size_t>(1, world_jobs));
  }

  /// Hook for binaries with extra flags (croupier-lab): called first for
  /// every argument; return true to consume it.
  using ExtraFlagFn = std::function<bool(const std::string&)>;

  /// Parses a full decimal number; on malformed or empty input warns on
  /// stderr and leaves `out` untouched, so a typo degrades to the
  /// documented default instead of aborting the bench run.
  static void parse_u64(const std::string& flag, const std::string& text,
                        std::uint64_t& out) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    // strtoull skips leading whitespace and wraps "-1" to UINT64_MAX, so
    // additionally insist the text starts with a digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        end != text.c_str() + text.size() || errno == ERANGE) {
      std::fprintf(stderr, "warning: ignoring malformed %s=%s\n",
                   flag.c_str(), text.c_str());
      return;
    }
    out = v;
  }

  static BenchArgs parse(int argc, char** argv,
                         const ExtraFlagFn& extra = {}) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (extra && extra(a)) {
        // consumed by the caller
      } else if (a.rfind("--runs=", 0) == 0) {
        std::uint64_t v = args.runs;
        parse_u64("--runs", a.substr(7), v);
        args.runs = static_cast<std::size_t>(v);
      } else if (a.rfind("--seed=", 0) == 0) {
        parse_u64("--seed", a.substr(7), args.seed);
      } else if (a.rfind("--jobs=", 0) == 0) {
        std::uint64_t v = args.jobs;
        parse_u64("--jobs", a.substr(7), v);
        args.jobs = static_cast<std::size_t>(v);
      } else if (a.rfind("--world-jobs=", 0) == 0) {
        std::uint64_t v = args.world_jobs;
        parse_u64("--world-jobs", a.substr(13), v);
        args.world_jobs = static_cast<std::size_t>(v);
      } else if (a.rfind("--csv=", 0) == 0) {
        if (built_with_sanitizer()) {
          // A sanitized binary must never mirror data points to disk:
          // that CSV is one copy-paste away from becoming the regression
          // baseline, and instrumented timings poison every later
          // comparison. scripts/run_benches.sh checks --build-info for
          // the same reason before writing BENCH_micro.json.
          std::fprintf(stderr,
                       "error: refusing %s: this binary was built with a "
                       "sanitizer (timings are instrumented, not "
                       "baseline-grade); rebuild without -fsanitize\n",
                       a.c_str());
          std::exit(2);
        }
        args.csv = a.substr(6);
      } else if (a == "--fast") {
        args.fast = true;
      } else if (a == "--build-info") {
        // Machine-readable build provenance for scripts/run_benches.sh.
        std::printf("sanitized=%s\n", built_with_sanitizer() ? "yes" : "no");
        std::exit(0);
      } else if (a == "--help") {
        std::printf(
            "flags: --runs=N --seed=S --jobs=N --world-jobs=N --csv=PATH "
            "--fast --build-info\n");
        std::exit(0);  // usage requested — don't launch the full run
      } else {
        // A typo like --run=5 silently reverting to the default cost
        // real debugging time; make every unrecognized argument loud.
        std::fprintf(stderr, "warning: unknown flag %s (ignored)\n",
                     a.c_str());
      }
    }
    if (args.runs == 0) {
      // --runs=0 would feed empty run sets into every aggregate
      // (division by zero in the averages); the least surprising repair
      // is the smallest valid trial count.
      std::fprintf(stderr, "warning: --runs=0 is invalid; clamping to 1\n");
      args.runs = 1;
    }
    if (args.world_jobs == 0) {
      std::fprintf(stderr,
                   "warning: --world-jobs=0 is invalid; clamping to 1\n");
      args.world_jobs = 1;
    }
    const std::size_t budget =
        args.jobs != 0 ? args.jobs
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency());
    if (args.world_jobs > budget) {
      // --jobs is the *total* core budget the two axes share; shards
      // beyond it would silently oversubscribe (output is identical
      // either way, so clamping is safe).
      std::fprintf(stderr,
                   "warning: --world-jobs=%zu exceeds the --jobs budget "
                   "(%zu); clamping\n",
                   args.world_jobs, budget);
      args.world_jobs = budget;
    }
    return args;
  }
};

/// Registry spec for Croupier with explicit history windows (the
/// (α, γ) pairs the paper sweeps).
inline std::string croupier_proto(std::size_t alpha, std::size_t gamma) {
  return exp::strf("croupier:alpha=%zu,gamma=%zu", alpha, gamma);
}

/// Paper §VII-A setup: ω = 0.2, Poisson joins with 50 ms / 13 ms
/// inter-arrival, King latencies, 1 % clock skew — every one the
/// ExperimentSpec default. Assign further fields for the figure-specific
/// workload.
inline run::ExperimentSpec paper_spec(std::size_t nodes, double duration_s) {
  run::ExperimentSpec spec;
  spec.nodes = nodes;
  spec.duration_s = duration_s;
  return spec;
}

/// What a trial body `fn(spec, seed)` returns.
template <typename Fn>
using TrialResult = std::decay_t<
    std::invoke_result_t<Fn&, const run::ExperimentSpec&, std::uint64_t>>;

/// Fans the runs x specs trial grid out on the pool and hands each
/// finished trial to `fold(point, result)` in grid order, whatever the
/// execution order or thread count. Every spec is validated first, so a
/// bad one fails before any trial starts. `fn(spec, seed)` runs one
/// trial; it executes concurrently on pool workers, so it must only read
/// its captures and build its own World.
template <typename Fn, typename Fold>
void fold_trial_grid(exp::TrialPool& pool, const BenchArgs& args,
                     const std::vector<run::ExperimentSpec>& specs, Fn&& fn,
                     Fold&& fold) {
  using R = TrialResult<Fn>;
  for (const auto& spec : specs) spec.validate();
  pool.map_fold(
      specs.size() * args.runs,
      [&](std::size_t i) {
        const std::size_t p = i / args.runs;
        return fn(specs[p], exp::trial_seed(args.seed, p, i % args.runs));
      },
      [&](std::size_t i, R&& result) {
        fold(i / args.runs, std::move(result));
      });
}

/// fold_trial_grid keeping every result: `results[point][run]`.
template <typename Fn>
auto run_trial_grid(exp::TrialPool& pool, const BenchArgs& args,
                    const std::vector<run::ExperimentSpec>& specs, Fn&& fn) {
  using R = TrialResult<Fn>;
  std::vector<std::vector<R>> out(specs.size());
  fold_trial_grid(pool, args, specs, fn, [&out](std::size_t p, R&& r) {
    out[p].push_back(std::move(r));
  });
  return out;
}

/// One finished trial: its recorder's columns, the network's drop
/// counters, the parallel engine's counters (zero under the sequential
/// engine) and the trial's wall-clock seconds.
struct Trial {
  std::span<const run::Column> columns;
  run::ColumnTable table;
  net::Network::DropStats drops;
  sim::ParallelExecutor::Stats engine;
  double seconds = 0.0;
};

/// Streaming aggregation of one sweep point, for any record kind: each
/// finished trial folds into per-column Welford accumulators and is
/// freed, so peak memory holds ~--jobs tables instead of all points x
/// runs. Runs fold in run order, which keeps the aggregate byte-identical
/// for every --jobs value. The wall-clock, memory and drop totals are
/// for stderr reports only, never for the result sink.
struct PointFold {
  std::span<const run::Column> columns;
  std::vector<double> t;  // grid of the first non-empty run
  std::vector<exp::SeriesAccum> values;  // one per table column
  exp::Accum seconds;
  double max_seconds = 0.0;
  std::uint64_t max_rss = 0;  // resident set observed at fold time
  net::Network::DropStats drops;  // summed across the point's trials
  sim::ParallelExecutor::Stats engine;  // summed across the point's trials

  void add(const Trial& trial) {
    columns = trial.columns;
    if (t.empty()) t = trial.table.t;
    values.resize(trial.table.values.size());
    for (std::size_t c = 0; c < values.size(); ++c) {
      values[c].add(trial.table.values[c]);
    }
    seconds.add(trial.seconds);
    max_seconds = std::max(max_seconds, trial.seconds);
    // Sampled when the trial folds. Trials of different points
    // interleave under --jobs, so this is an upper bound on the point's
    // own footprint — tight when points run alone, still the number
    // that answers "did this sweep fit in memory".
    max_rss = std::max(max_rss, exp::current_rss_bytes());
    drops += trial.drops;
    engine += trial.engine;
  }

  /// Sample times, cut to the shortest run.
  [[nodiscard]] std::vector<double> times() const {
    const std::size_t len = values.empty() ? 0 : values[0].size();
    return {t.begin(), t.begin() + static_cast<std::ptrdiff_t>(len)};
  }
};

/// Appends columns of its own to a finished trial's table, after the
/// recorder's (fig2's true ratio).
using TrialExtra =
    std::function<void(const run::Experiment&, run::ColumnTable&)>;

/// The sweep path of every recorder-driven bench and of croupier-lab:
/// runs each spec --runs times to its horizon on the pool and folds the
/// recorder tables into one PointFold per spec, in spec order.
inline std::vector<PointFold> run_sweep(
    exp::TrialPool& pool, const BenchArgs& args,
    const std::vector<run::ExperimentSpec>& specs,
    const TrialExtra& extra = {}) {
  for (const auto& spec : specs) {
    if (spec.record == run::ExperimentSpec::RecordKind::None) {
      throw std::invalid_argument("spec: record=none has nothing to fold");
    }
  }
  std::vector<PointFold> folds(specs.size());
  fold_trial_grid(
      pool, args, specs,
      [&](const run::ExperimentSpec& spec, std::uint64_t seed) {
        // detlint:allow(wallclock) per-trial timing for stderr reports
        // only — never reaches the result sink.
        const auto start = std::chrono::steady_clock::now();
        run::Experiment experiment(spec, seed, args.world_jobs);
        experiment.run();
        const run::Recorder& recorder = *experiment.recorder();
        Trial trial{recorder.columns(), recorder.table(),
                    experiment.world().network().drops(), {}};
        if (const auto* engine = experiment.world().engine_stats()) {
          trial.engine = *engine;
        }
        if (extra) extra(experiment, trial.table);
        // detlint:allow(wallclock) stderr-only timing, as above.
        const auto end = std::chrono::steady_clock::now();
        trial.seconds = std::chrono::duration<double>(end - start).count();
        return trial;
      },
      [&folds](std::size_t p, Trial&& trial) { folds[p].add(trial); });
  return folds;
}

/// Emits a summary scalar plus its across-runs spread (CSV only).
inline void emit_value(exp::ResultSink& sink, const std::string& block,
                       const std::string& key, const exp::Accum& acc) {
  sink.value(block, key, acc.mean());
  if (acc.n() > 1) sink.spread(block, key, acc.stddev());
}

/// Mean of the tail (steady state) of a series.
inline double steady_state(const std::vector<double>& v,
                           std::size_t tail = 50) {
  if (v.empty()) return 0.0;
  const std::size_t n = std::min(tail, v.size());
  double sum = 0;
  for (std::size_t i = v.size() - n; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// Prints one sweep point: a series block per recorder column, the
/// column's block named `names[c]`; then, unless `block` is empty, the
/// summary line of every column with a summary rule and its CSV values.
inline void emit(exp::ResultSink& sink, const PointFold& fold,
                 const std::vector<std::string>& names,
                 const std::string& block, std::size_t runs) {
  const std::vector<double> t = fold.times();
  std::string line = block + ":";
  std::vector<std::pair<std::string, double>> summaries;
  for (std::size_t c = 0; c < fold.columns.size(); ++c) {
    const run::Column& column = fold.columns[c];
    const std::vector<double> means = fold.values[c].means();
    // The across-runs stddev column only when more than one run backs
    // each point.
    if (runs > 1) {
      sink.series(names[c], t, means, fold.values[c].stddevs(), "%.0f",
                  column.format);
    } else {
      sink.series(names[c], t, means, "%.0f", column.format);
    }
    if (column.summary == run::Summary::None) continue;
    const bool steady = column.summary == run::Summary::SteadyMean;
    const double value = steady          ? steady_state(means)
                         : means.empty() ? 0.0
                                         : means.back();
    const std::string key =
        std::string(steady ? "steady " : "final ") + column.summary_name;
    line += " " + key + "=" + exp::strf(column.summary_format, value);
    summaries.emplace_back(key, value);
  }
  if (block.empty()) return;
  sink.comment(line);
  sink.blank();
  for (const auto& [key, value] : summaries) sink.value(block, key, value);
}

}  // namespace croupier::bench
