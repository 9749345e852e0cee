// Tests for the exp/ trial-execution subsystem: TrialPool scheduling and
// exception behaviour, deterministic per-trial seed derivation, ResultSink
// CSV emission, and the cornerstone guarantee of the whole harness — a
// parallel run aggregates to byte-identical output as a serial run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/seeds.hpp"
#include "exp/sink.hpp"
#include "exp/trial_pool.hpp"

namespace croupier::exp {
namespace {

TEST(TrialPool, DefaultsToHardwareConcurrency) {
  TrialPool pool;
  EXPECT_GE(pool.jobs(), 1u);
}

TEST(TrialPool, RunsEverySubmittedTask) {
  TrialPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(TrialPool, WaitIsReusable) {
  TrialPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(TrialPool, WaitRethrowsFirstTaskException) {
  TrialPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("trial failed"); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(TrialSeed, IsDeterministic) {
  EXPECT_EQ(trial_seed(1, 2, 3), trial_seed(1, 2, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 2, 4));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 3, 3));
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(2, 2, 3));
}

TEST(TrialSeed, GridCellsAreDistinct) {
  std::set<std::uint64_t> seen;
  std::size_t cells = 0;
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (std::uint64_t point = 0; point < 20; ++point) {
      for (std::uint64_t run = 0; run < 20; ++run) {
        seen.insert(trial_seed(seed, point, run));
        ++cells;
      }
    }
  }
  EXPECT_EQ(seen.size(), cells);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ResultSink, WritesSeriesToCsvAndText) {
  const std::string csv_path = ::testing::TempDir() + "sink_series.csv";
  const std::string txt_path = ::testing::TempDir() + "sink_series.txt";
  {
    std::FILE* out = std::fopen(txt_path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    ResultSink sink(csv_path, out);
    EXPECT_TRUE(sink.csv_enabled());
    const std::vector<double> x{0.0, 1.0};
    const std::vector<double> y{0.25, 0.5};
    sink.series("figX avg-error", x, y);
    sink.value("summary", "steady avg-err", 0.125);
    std::fclose(out);
  }
  EXPECT_EQ(slurp(txt_path),
            "# figX avg-error\n"
            "0 0.250000\n"
            "1 0.500000\n"
            "\n");
  EXPECT_EQ(slurp(csv_path),
            "kind,block,x,y\n"
            "series,\"figX avg-error\",0,0.250000\n"
            "series,\"figX avg-error\",1,0.500000\n"
            "value,\"summary\",\"steady avg-err\",0.125\n");
  std::remove(csv_path.c_str());
  std::remove(txt_path.c_str());
}

TEST(ResultSink, SeriesWithSpreadEmitsThirdColumnAndSpreadRows) {
  const std::string csv_path = ::testing::TempDir() + "sink_spread.csv";
  const std::string txt_path = ::testing::TempDir() + "sink_spread.txt";
  {
    std::FILE* out = std::fopen(txt_path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    ResultSink sink(csv_path, out);
    const std::vector<double> x{0.0, 1.0};
    const std::vector<double> y{0.25, 0.5};
    const std::vector<double> sd{0.01, 0.02};
    sink.series("figX avg-error", x, y, sd);
    sink.value("summary", "steady avg-err", 0.125);
    sink.spread("summary", "steady avg-err", 0.004);
    std::fclose(out);
  }
  EXPECT_EQ(slurp(txt_path),
            "# figX avg-error\n"
            "0 0.250000 0.010000\n"
            "1 0.500000 0.020000\n"
            "\n");
  EXPECT_EQ(slurp(csv_path),
            "kind,block,x,y\n"
            "series,\"figX avg-error\",0,0.250000\n"
            "spread,\"figX avg-error\",0,0.010000\n"
            "series,\"figX avg-error\",1,0.500000\n"
            "spread,\"figX avg-error\",1,0.020000\n"
            "value,\"summary\",\"steady avg-err\",0.125\n"
            "spread,\"summary\",\"steady avg-err\",0.004\n");
  std::remove(csv_path.c_str());
  std::remove(txt_path.c_str());
}

TEST(Accum, WelfordMeanAndSampleStddev) {
  Accum acc;
  EXPECT_EQ(acc.n(), 0u);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  acc.add(2.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);  // one sample: no spread yet
  acc.add(4.0);
  acc.add(4.0);
  acc.add(4.0);
  acc.add(5.0);
  acc.add(5.0);
  acc.add(7.0);
  acc.add(9.0);
  EXPECT_EQ(acc.n(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of {2,4,4,4,5,5,7,9} is 32/7.
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(ResultSink, QuotesEmbeddedQuotesAndCommas) {
  const std::string csv_path = ::testing::TempDir() + "sink_quote.csv";
  {
    ResultSink sink(csv_path, nullptr);
    sink.value("a \"b\", c", "k", 1.0);
  }
  EXPECT_EQ(slurp(csv_path),
            "kind,block,x,y\n"
            "value,\"a \"\"b\"\", c\",\"k\",1\n");
  std::remove(csv_path.c_str());
}

TEST(ResultSink, UnwritableCsvPathDegradesToTextOnly) {
  ResultSink sink("/nonexistent-dir/x.csv", nullptr);
  EXPECT_FALSE(sink.csv_enabled());
  sink.value("block", "key", 1.0);  // must not crash
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("n=%zu r=%.2f", std::size_t{5}, 0.5), "n=5 r=0.50");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(TrialPoolMapFold, FoldsInIndexOrderWhateverTheJobCount) {
  for (std::size_t jobs : {1u, 4u}) {
    TrialPool pool(jobs);
    std::vector<std::size_t> folded;
    pool.map_fold(
        64, [](std::size_t i) { return i * 3; },
        [&folded](std::size_t i, std::size_t&& v) {
          EXPECT_EQ(v, i * 3);
          folded.push_back(i);
        });
    ASSERT_EQ(folded.size(), 64u);
    for (std::size_t i = 0; i < folded.size(); ++i) EXPECT_EQ(folded[i], i);
  }
}

TEST(TrialPoolMapFold, BoundsReorderBufferUnderSkewedCompletion) {
  // Trial 0 is the slow one; the backpressure window must keep workers
  // from racing through the whole grid while it gates the fold cursor.
  TrialPool pool(3);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> max_started_before_fold{0};
  std::atomic<bool> first_folded{false};
  std::vector<std::size_t> folded;
  pool.map_fold(
      100,
      [&](std::size_t i) {
        const std::size_t s = ++started;
        if (!first_folded.load()) {
          std::size_t seen = max_started_before_fold.load();
          while (s > seen &&
                 !max_started_before_fold.compare_exchange_weak(seen, s)) {
          }
        }
        if (i == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        return i;
      },
      [&](std::size_t i, std::size_t&& v) {
        EXPECT_EQ(v, i);
        if (i == 0) first_folded = true;
        folded.push_back(i);
      });
  ASSERT_EQ(folded.size(), 100u);
  for (std::size_t i = 0; i < folded.size(); ++i) EXPECT_EQ(folded[i], i);
  // Window is 2*jobs = 6: while trial 0 blocked the cursor at 0, no
  // trial with index >= 6 may have started.
  EXPECT_LE(max_started_before_fold.load(), 6u);
}

TEST(TrialPoolMapFold, ThrowingTrialReleasesWaitersAndRethrows) {
  TrialPool pool(2);
  EXPECT_THROW(
      pool.map_fold(
          50,
          [](std::size_t i) -> std::size_t {
            if (i == 0) throw std::runtime_error("trial 0 failed");
            return i;
          },
          [](std::size_t, std::size_t&&) {}),
      std::runtime_error);
}

TEST(SeriesAccum, TruncatesToShortestRunAndMatchesAccum) {
  SeriesAccum acc;
  acc.add(std::vector<double>{1.0, 2.0, 3.0});
  acc.add(std::vector<double>{5.0, 6.0});  // shorter run drops index 2
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc.runs(), 2u);
  Accum ref;
  ref.add(1.0);
  ref.add(5.0);
  EXPECT_EQ(acc.mean(0), ref.mean());
  EXPECT_EQ(acc.stddev(0), ref.stddev());
  EXPECT_EQ(acc.means(), (std::vector<double>{ref.mean(), 4.0}));
}

// The streaming aggregation (bench::PointFold over Welford accumulators)
// must emit the same bytes as the buffered path it replaced: materialise
// every run's recorder table, average with plain sum/n, take the two-pass
// standard deviation. The reference implementation lives only here now —
// this test is the byte-equality assertion that allowed deleting it from
// bench_common.
struct Aggregate {
  std::vector<double> t;
  std::vector<std::vector<double>> mean;  // per column
  std::vector<std::vector<double>> sd;
};

Aggregate buffered_reference(const std::vector<run::ColumnTable>& runs) {
  Aggregate agg;
  std::size_t len = runs[0].t.size();
  for (const auto& r : runs) len = std::min(len, r.t.size());
  const auto n = static_cast<double>(runs.size());
  agg.t.assign(runs[0].t.begin(),
               runs[0].t.begin() + static_cast<std::ptrdiff_t>(len));
  for (std::size_t c = 0; c < runs[0].values.size(); ++c) {
    auto& mean = agg.mean.emplace_back();
    auto& sd = agg.sd.emplace_back();
    for (std::size_t i = 0; i < len; ++i) {
      double sum = 0;
      for (const auto& r : runs) sum += r.values[c][i];
      const double m = sum / n;
      double var = 0;
      for (const auto& r : runs) {
        var += (r.values[c][i] - m) * (r.values[c][i] - m);
      }
      const double denom = runs.size() > 1 ? n - 1 : 1;
      mean.push_back(m);
      sd.push_back(std::sqrt(var / denom));
    }
  }
  return agg;
}

Aggregate streamed(const bench::PointFold& fold) {
  Aggregate agg;
  agg.t = fold.times();
  for (const auto& column : fold.values) {
    agg.mean.push_back(column.means());
    agg.sd.push_back(column.stddevs());
  }
  return agg;
}

std::string printed_bytes(const Aggregate& agg) {
  std::string out;
  for (std::size_t i = 0; i < agg.t.size(); ++i) {
    for (std::size_t c = 0; c < agg.mean.size(); ++c) {
      out += strf("%s%.0f %.6f %.6f", c == 0 ? "" : " | ", agg.t[i],
                  agg.mean[c][i], agg.sd[c][i]);
    }
    out += '\n';
  }
  return out;
}

TEST(StreamingAggregation, MatchesBufferedPathBytes) {
  bench::BenchArgs args;
  args.runs = 4;
  args.seed = 13;
  auto spec = bench::paper_spec(48, 20);
  spec.protocol = bench::croupier_proto(10, 25);
  spec.ratio = 0.25;
  TrialPool pool(2);

  // Buffered reference: every run's table materialised, then aggregated.
  std::vector<run::ColumnTable> runs;
  for (std::size_t r = 0; r < args.runs; ++r) {
    run::Experiment experiment(spec, trial_seed(args.seed, 0, r));
    experiment.run();
    runs.push_back(experiment.recorder()->table());
  }
  const auto buffered = buffered_reference(runs);

  // Streaming path: the run_sweep the benches and croupier-lab use.
  const auto folds = bench::run_sweep(pool, args, {spec});
  ASSERT_EQ(folds.size(), 1u);
  ASSERT_EQ(folds[0].values.size(), 2u);  // avg- and max-error
  ASSERT_FALSE(folds[0].t.empty());
  EXPECT_EQ(printed_bytes(buffered), printed_bytes(streamed(folds[0])));
}

// The cornerstone guarantee: a fig1-style experiment fanned out over 4
// workers aggregates to *byte-identical* series as the same experiment on
// 1 worker. Uses the real bench plumbing (run_sweep + specs + emit +
// ResultSink) on a miniature world so it stays fast.
TEST(TrialGridDeterminism, FourJobsMatchSerialByteForByte) {
  bench::BenchArgs args;
  args.runs = 3;
  args.seed = 7;
  const std::pair<std::size_t, std::size_t> windows[] = {{10, 25}, {25, 50}};
  std::vector<run::ExperimentSpec> specs;
  for (const auto& [alpha, gamma] : windows) {
    auto& spec = specs.emplace_back(bench::paper_spec(32, 15));
    spec.protocol = bench::croupier_proto(alpha, gamma);
    spec.ratio = 0.25;
  }

  const auto run_experiment = [&](std::size_t jobs) {
    TrialPool pool(jobs);
    return bench::run_sweep(pool, args, specs);
  };
  const auto serial = run_experiment(1);
  const auto parallel = run_experiment(4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    // Bitwise equality on the aggregated doubles — not near-equality:
    // identical trials summed in a fixed order must give identical bits.
    const auto a = streamed(serial[p]);
    const auto b = streamed(parallel[p]);
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.sd, b.sd);
    EXPECT_FALSE(a.t.empty());
  }

  // And the emitted artifacts match byte for byte, spread column included.
  const auto emit = [&](const std::vector<bench::PointFold>& folds,
                        const std::string& csv_path) {
    ResultSink sink(csv_path, nullptr);
    for (std::size_t p = 0; p < folds.size(); ++p) {
      bench::emit(sink, folds[p],
                  {strf("fig1a avg-error w=%zu", p),
                   strf("fig1b max-error w=%zu", p)},
                  strf("summary w=%zu", p), args.runs);
    }
  };
  const std::string csv1 = ::testing::TempDir() + "det_jobs1.csv";
  const std::string csv4 = ::testing::TempDir() + "det_jobs4.csv";
  emit(serial, csv1);
  emit(parallel, csv4);
  const std::string contents1 = slurp(csv1);
  EXPECT_EQ(contents1, slurp(csv4));
  EXPECT_NE(contents1.find("series,"), std::string::npos);
  EXPECT_NE(contents1.find("spread,"), std::string::npos);
  std::remove(csv1.c_str());
  std::remove(csv4.c_str());
}

// A bad spec fails before any trial starts: run_sweep validates the
// whole sweep up front instead of surfacing a TrialPool rethrow.
TEST(TrialGridDeterminism, SweepValidatesEverySpecBeforeFanOut) {
  bench::BenchArgs args;
  args.runs = 1;
  auto good = bench::paper_spec(32, 15);
  auto bad = good;
  bad.churn = 1.0;  // outside [0, 1)
  auto silent = good;
  silent.record = run::ExperimentSpec::RecordKind::None;
  TrialPool pool(2);
  std::atomic<int> trials{0};
  const auto count = [&trials](const run::ExperimentSpec&, std::uint64_t) {
    return ++trials;
  };
  EXPECT_THROW((void)bench::run_trial_grid(pool, args, {good, bad}, count),
               std::invalid_argument);
  EXPECT_EQ(trials.load(), 0);
  EXPECT_THROW((void)bench::run_sweep(pool, args, {good, bad}),
               std::invalid_argument);
  EXPECT_THROW((void)bench::run_sweep(pool, args, {good, silent}),
               std::invalid_argument);
}

}  // namespace
}  // namespace croupier::exp
