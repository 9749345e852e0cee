// croupier-lab: the declarative experiment driver.
//
// Runs any run::ExperimentSpec through the exp::TrialPool / ResultSink
// pipeline — the one binary that replaces writing a new bench for every
// new scenario. A sweep is a list of specs: pass --protocol repeatedly to
// compare samplers under identical conditions (PeerSwap-style), or
// --spec repeatedly to run arbitrary serialized specs.
//
//   croupier-lab --protocol=croupier --nodes=1000 --ratio=0.2
//                --churn=0.01 --runs=5 --csv=out.csv
//   croupier-lab --protocol=croupier:alpha=10,gamma=25
//                --protocol=croupier:alpha=25,gamma=50 --duration=350
//   croupier-lab --spec="protocol=gozar nodes=500 ratio=0.2 duration=120"
//
// Output matches the fig benches: gnuplot series blocks on stdout (one
// per column of the recorder the spec selects, e.g. avg- and max-error
// for estimation), stddev third column when --runs>1, optional CSV
// mirror. Spec points are trial-grid points, so the seed of
// (point p, run r) is exp::trial_seed(seed, p, r) — invoking croupier-lab
// with fig1's three (alpha,gamma) specs reproduces fig1's series
// byte-for-byte at the same --seed/--runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exp/memory.hpp"

namespace {

using namespace croupier;

constexpr const char* kUsageHead =
    "croupier-lab: run declarative peer-sampling experiments\n"
    "\n"
    "spec selection (one sweep point per flag occurrence):\n"
    "  --protocol=NAME[:k=v,...]  protocol for the shared scenario; repeat\n"
    "                             to sweep several samplers (croupier,\n"
    "                             cyclon, gozar, nylon, arrg)\n"
    "  --spec=\"k=v k=v ...\"       full ExperimentSpec string; repeat to\n"
    "                             sweep (exclusive with scenario flags)\n"
    "scenario (shared by every --protocol point; one flag per spec key,\n"
    "see docs/SPEC_REFERENCE.md; N integer, X real, times in s unless ms):\n";

constexpr const char* kUsageTail =
    "  --natid                    shorthand for --natid=1\n"
    "harness:\n"
    "  --runs=N --seed=S --jobs=N --csv=PATH   as in the fig benches;\n"
    "                             with --runs>1 series rows gain a stddev\n"
    "                             column and the CSV gains `spread` rows\n"
    "  --world-jobs=N             workers inside each trial World (the\n"
    "                             round-synchronous parallel engine);\n"
    "                             output is byte-identical for every N\n"
    "  --print-spec               print canonical spec strings and exit\n"
    "\n"
    "Per sweep point, elapsed wall-clock, the effective parallelism\n"
    "(concurrent trials x world shards), resident memory and, under\n"
    "--world-jobs>1, the engine's batches and phase times are reported\n"
    "on stderr, so speedups and footprints are observable without\n"
    "external tooling. Engine phases, on the engine thread: drain (the\n"
    "bucket-head scan that sets each batch's limit), execute (its own\n"
    "buckets, their pops included), wait (for the workers), replay.\n";

void print_usage() {
  std::fputs(kUsageHead, stdout);
  for (const auto& key : run::ExperimentSpec::key_docs()) {
    if (key.name == "protocol") continue;  // the sweep axis, listed above
    const std::string flag = "  --" + key.name + "=" + key.syntax;
    if (flag.size() < 28) {
      std::printf("%-29s%s\n", flag.c_str(), key.doc.c_str());
    } else {
      std::printf("%s\n%29s%s\n", flag.c_str(), "", key.doc.c_str());
    }
  }
  std::fputs(kUsageTail, stdout);
}

struct LabFlags {
  std::vector<std::string> protocols;
  std::vector<std::string> raw_specs;
  std::vector<std::pair<std::string, std::string>> scenario;  // key, value
  bool print_spec = false;

  /// BenchArgs extra-flag hook: true when `arg` is a lab flag.
  bool consume(const std::string& arg) {
    if (arg == "--help") {
      print_usage();
      std::exit(0);
    }
    if (arg == "--fast") {
      // The fig benches shrink their hard-coded scale under --fast; the
      // lab's scale is explicit, so accepting it silently would be the
      // same trap the unknown-flag warning exists to close.
      std::fprintf(stderr,
                   "warning: croupier-lab has no --fast mode; set "
                   "--nodes/--duration explicitly (flag ignored)\n");
      return true;
    }
    if (arg == "--print-spec") {
      print_spec = true;
      return true;
    }
    if (arg == "--natid") {
      scenario.emplace_back("natid", "1");
      return true;
    }
    if (arg.rfind("--protocol=", 0) == 0) {
      protocols.push_back(arg.substr(11));
      return true;
    }
    if (arg.rfind("--spec=", 0) == 0) {
      raw_specs.push_back(arg.substr(7));
      return true;
    }
    for (const auto& key : run::ExperimentSpec::key_docs()) {
      const std::string prefix = "--" + key.name + "=";
      if (arg.rfind(prefix, 0) == 0) {
        scenario.emplace_back(key.name, arg.substr(prefix.size()));
        return true;
      }
    }
    return false;
  }
};

/// The record kinds a sweep can report: the record key's values after
/// the first, none (enum names are listed in enum order).
std::string recordable_kinds() {
  for (const auto& key : run::ExperimentSpec::key_docs()) {
    if (key.name != "record") continue;
    return key.syntax.substr(key.syntax.find('|') + 1);
  }
  return {};
}

/// The sweep: one ExperimentSpec per point, built either from --spec
/// strings or from the shared scenario flags times the protocol list.
std::vector<run::ExperimentSpec> build_specs(const LabFlags& flags) {
  std::vector<run::ExperimentSpec> specs;
  if (!flags.raw_specs.empty()) {
    if (!flags.protocols.empty() || !flags.scenario.empty()) {
      std::fprintf(stderr,
                   "error: --spec is exclusive with --protocol and the "
                   "scenario flags\n");
      std::exit(1);
    }
    for (const auto& raw : flags.raw_specs) {
      specs.push_back(run::ExperimentSpec::parse(raw));
    }
    return specs;
  }

  // Scenario flags reuse the ExperimentSpec string syntax key for key, so
  // the base spec is just their concatenation.
  std::string base_text;
  for (const auto& [key, value] : flags.scenario) {
    base_text += key + "=" + value + " ";
  }
  const auto protocols = flags.protocols.empty()
                             ? std::vector<std::string>{"croupier"}
                             : flags.protocols;
  for (const auto& protocol : protocols) {
    specs.push_back(
        run::ExperimentSpec::parse(base_text + "protocol=" + protocol));
  }
  return specs;
}

void report_timing(const std::vector<std::string>& labels,
                   const std::vector<bench::PointFold>& folds,
                   const bench::BenchArgs& args, double elapsed) {
  const std::size_t shards = std::max<std::size_t>(1, args.world_jobs);
  // The pool never runs more trials at once than the sweep has.
  const std::size_t trials = labels.size() * args.runs;
  const std::size_t concurrent = std::min(args.trial_jobs(), trials);
  for (std::size_t p = 0; p < labels.size(); ++p) {
    const auto& d = folds[p].drops;
    std::string engine;
    if (shards > 1) {
      const auto& e = folds[p].engine;
      engine = exp::strf(
          " engine=batches:%llu,mean-batch:%.1f,drain:%.3fs,execute:%.3fs,"
          "wait:%.3fs,replay:%.3fs",
          static_cast<unsigned long long>(e.batches),
          e.batches > 0 ? static_cast<double>(e.batched_events) /
                              static_cast<double>(e.batches)
                        : 0.0,
          e.drain_s, e.execute_s, e.wait_s, e.replay_s);
    }
    std::fprintf(stderr,
                 "# timing %s: trials=%zu wall-sum=%.2fs wall-max=%.2fs "
                 "rss-max=%.1fMiB "
                 "drop-bytes=loss:%llu,nat:%llu,dead:%llu "
                 "frags=sent:%llu,lost:%llu,reassembled:%llu,expired:%llu "
                 "effective-parallelism=%zu "
                 "(%zu of %zu trials at once x %zu world shards)%s\n",
                 labels[p].c_str(), folds[p].seconds.n(),
                 folds[p].seconds.mean() *
                     static_cast<double>(folds[p].seconds.n()),
                 folds[p].max_seconds,
                 static_cast<double>(folds[p].max_rss) / (1024.0 * 1024.0),
                 static_cast<unsigned long long>(d.loss_bytes),
                 static_cast<unsigned long long>(d.nat_filtered_bytes),
                 static_cast<unsigned long long>(d.dead_receiver_bytes),
                 static_cast<unsigned long long>(d.fragments_sent),
                 static_cast<unsigned long long>(d.fragments_lost),
                 static_cast<unsigned long long>(d.fragments_reassembled),
                 static_cast<unsigned long long>(d.fragments_expired),
                 concurrent * shards, concurrent, trials, shards,
                 engine.c_str());
  }
  std::fprintf(stderr, "# timing total: elapsed=%.2fs peak-rss=%.1fMiB\n",
               elapsed,
               static_cast<double>(exp::peak_rss_bytes()) /
                   (1024.0 * 1024.0));
}

}  // namespace

int main(int argc, char** argv) {
  LabFlags flags;
  const auto args = bench::BenchArgs::parse(
      argc, argv, [&flags](const std::string& a) { return flags.consume(a); });

  std::vector<run::ExperimentSpec> specs;
  try {
    specs = build_specs(flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (flags.print_spec) {
    for (const auto& spec : specs) {
      std::printf("%s\n", spec.to_string().c_str());
    }
    return 0;
  }
  for (const auto& spec : specs) {
    if (spec.record == run::ExperimentSpec::RecordKind::None) {
      std::fprintf(stderr,
                   "error: record=none records nothing to report; use "
                   "record=%s\n",
                   recordable_kinds().c_str());
      return 1;
    }
    if (spec.record != specs[0].record) {
      std::fprintf(stderr,
                   "error: every spec of one sweep must record the same "
                   "kind\n");
      return 1;
    }
  }

  // Series labels default to the protocol spec; sweep points that share
  // one (several --spec strings varying only the scenario) are suffixed
  // with their point index so no two output blocks collide.
  std::vector<std::string> labels;
  labels.reserve(specs.size());
  for (const auto& spec : specs) labels.push_back(spec.protocol);
  const std::vector<std::string> plain = labels;
  for (std::size_t p = 0; p < labels.size(); ++p) {
    std::size_t same = 0;
    for (const auto& label : plain) same += label == plain[p] ? 1 : 0;
    if (same > 1) labels[p] += exp::strf(" #%zu", p);
  }

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf("croupier-lab: %zu spec(s), %zu run(s), seed %llu",
                         specs.size(), args.runs,
                         static_cast<unsigned long long>(args.seed)));
  for (const auto& spec : specs) sink.comment(spec.to_string());
  sink.blank();

  // detlint:allow(wallclock) sweep wall-clock for the stderr timing
  // report only; the sink output carries no wall-clock bytes.
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto folds = bench::run_sweep(pool, args, specs);
  for (std::size_t p = 0; p < specs.size(); ++p) {
    std::vector<std::string> names;
    for (const auto& column : folds[p].columns) {
      names.push_back(labels[p] + " " + column.name);
    }
    bench::emit(sink, folds[p], names, "summary " + labels[p], args.runs);
  }
  // detlint:allow(wallclock) stderr-only timing report, as above.
  const auto sweep_end = std::chrono::steady_clock::now();
  const std::chrono::duration<double> elapsed = sweep_end - sweep_start;
  report_timing(labels, folds, args, elapsed.count());
  return 0;
}
