// CSV export of the metric recorders. The one CSV path is the result
// sink's --csv mirror, fed by the sweep fold: every recorder column
// becomes one `series` row per sample, every summary one `value` row.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"

namespace croupier::run {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t rows_of(const std::string& csv, const std::string& prefix) {
  std::size_t n = 0;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    n += line.rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return n;
}

/// One run of `spec` folded and emitted into a CSV file; returns the
/// file's contents and the fold.
std::pair<std::string, bench::PointFold> export_csv(
    const ExperimentSpec& spec, const std::string& file) {
  bench::BenchArgs args;
  args.runs = 1;
  exp::TrialPool pool(1);
  auto folds = bench::run_sweep(pool, args, {spec});
  std::vector<std::string> names;
  for (const Column& column : folds[0].columns) names.push_back(column.name);
  const std::string path = ::testing::TempDir() + file;
  {
    exp::ResultSink sink(path, nullptr);
    bench::emit(sink, folds[0], names, "summary", args.runs);
  }
  std::string content = slurp(path);
  std::remove(path.c_str());
  return {std::move(content), std::move(folds[0])};
}

TEST(CsvExport, EstimationSeries) {
  const auto [csv, fold] = export_csv(
      ExperimentSpec::parse("protocol=croupier nodes=20 ratio=0.25 "
                            "join=instant duration=10"),
      "est_series.csv");
  EXPECT_EQ(csv.rfind("kind,block,x,y\n", 0), 0u);
  const std::size_t points = fold.times().size();
  ASSERT_GT(points, 0u);
  EXPECT_EQ(rows_of(csv, "series,\"avg-error\","), points);
  EXPECT_EQ(rows_of(csv, "series,\"max-error\","), points);
  EXPECT_EQ(rows_of(csv, "value,\"summary\",\"steady avg-err\","), 1u);
  EXPECT_EQ(rows_of(csv, "value,\"summary\",\"steady max-err\","), 1u);
}

TEST(CsvExport, GraphSeries) {
  const auto [csv, fold] = export_csv(
      ExperimentSpec::parse("protocol=croupier nodes=10 ratio=1 "
                            "join=instant duration=9 record=graph "
                            "record-every=2"),
      "graph_series.csv");
  const std::size_t points = fold.times().size();
  EXPECT_EQ(points, 4u);  // t = 2, 4, 6, 8
  EXPECT_EQ(rows_of(csv, "series,\"avg-path-length\","), points);
  EXPECT_EQ(rows_of(csv, "series,\"clustering-coefficient\","), points);
  EXPECT_EQ(rows_of(csv, "value,\"summary\",\"final apl\","), 1u);
}

}  // namespace
}  // namespace croupier::run
