// Regenerates paper figure 3(a)/(b): estimation accuracy versus system
// size (50, 100, 500, 1000, 5000 nodes; ω = 0.2; α=25, γ=50).
//
// Expected shape: error shrinks with system size; large improvements up
// to a few hundred nodes, marginal beyond 1000 (paper: ~5% avg error at
// 50 nodes, ~2.5% at 100, ~0.2-0.4% at 1000-5000).
//
// The scale extension — the same Croupier at 10^5 or 10^6 nodes,
// recording the O(sample) streaming overlay metrics with wall-clock and
// resident memory on stderr — is a croupier-lab run (see
// docs/SPEC_REFERENCE.md, "Scale"):
//
//   croupier-lab --protocol=croupier:alpha=25,gamma=50 --nodes=1000000
//                --join=instant --latency=constant --duration=30
//                --record=graph-sampled --record-every=10
#include <span>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace croupier;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const double duration = args.fast ? 100 : 200;
  const std::size_t sizes_full[] = {50, 100, 500, 1000, 5000};
  const std::size_t sizes_fast[] = {50, 100, 500};
  const auto sizes = args.fast ? std::span<const std::size_t>(sizes_fast)
                               : std::span<const std::size_t>(sizes_full);

  exp::TrialPool pool(args.trial_jobs());
  exp::ResultSink sink(args.csv);
  sink.comment(exp::strf(
      "fig3: estimation error vs system size (omega=0.2, alpha=25, "
      "gamma=50), %zu run(s)",
      args.runs));
  sink.blank();

  std::vector<run::ExperimentSpec> specs;
  for (const std::size_t n : sizes) {
    auto& spec = specs.emplace_back(bench::paper_spec(n, duration));
    spec.protocol = bench::croupier_proto(25, 50);
  }
  const auto folds = bench::run_sweep(pool, args, specs);
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    bench::emit(sink, folds[p],
                {exp::strf("fig3a avg-error n=%zu", sizes[p]),
                 exp::strf("fig3b max-error n=%zu", sizes[p])},
                exp::strf("summary n=%zu", sizes[p]), args.runs);
  }
  return 0;
}
