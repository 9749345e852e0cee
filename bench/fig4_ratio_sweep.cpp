// Regenerates paper figure 4(a)/(b): estimation accuracy for different
// stable public/private ratios (1000 nodes).
//
// Paper sweeps ω ∈ {0.05, 0.1, 0.2, 0.33, 0.5, 0.8} (the figure legend
// prints 0.9 where the text says 80%; we follow the text).
//
// Expected shape: the average error is insensitive to ω; at ω = 0.05 the
// maximum error is markedly worse (an outlier private node receives too
// few distinct estimates).
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t n = args.fast ? 300 : 1000;
  const double duration = args.fast ? 100 : 200;
  const double ratios[] = {0.05, 0.1, 0.2, 0.33, 0.5, 0.8};

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig4: estimation error vs public/private ratio (%zu nodes), "
      "%zu run(s)",
      n, args.runs));
  sink.blank();

  std::vector<run::ExperimentSpec> specs;
  for (const double ratio : ratios) {
    auto& spec = specs.emplace_back(bench::paper_spec(n, duration));
    spec.protocol = bench::croupier_proto(25, 50);
    spec.ratio = ratio;
  }
  const auto folds = bench::run_sweep(pool, args, specs);
  for (std::size_t p = 0; p < std::size(ratios); ++p) {
    bench::emit(sink, folds[p],
                {exp::strf("fig4a avg-error ratio=%.2f", ratios[p]),
                 exp::strf("fig4b max-error ratio=%.2f", ratios[p])},
                exp::strf("summary ratio=%.2f", ratios[p]), args.runs);
  }
  return 0;
}
