// The round-synchronous parallel engine's contract: byte-identical
// results to the sequential engine, for every worker count, on every
// workload shape the specs can express.
//
// These suites run the same seeded experiment under world_jobs = 1
// (sequential engine), 2 and 4 (parallel engine) and require exact
// (bitwise) equality of everything observable: recorder series, drop
// counters, traffic totals, event counts and the surviving population.
// Any divergence — a missed defer(), a non-deterministic merge order, a
// latency model undercutting its min_latency() — fails loudly here
// before it can corrupt a figure.
//
// Registered with the `thread` ctest label so CI's ThreadSanitizer job
// also runs the executor's worker handoff under TSan.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/spec.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel_executor.hpp"
#include "sim/simulator.hpp"

namespace croupier {
namespace {

/// A simulator whose node-affine events each defer one effect: appending
/// the event's tag to `effects`, so the replay order is observable.
struct DeferringEvents {
  sim::Simulator sim;
  std::vector<int> effects;

  /// The typed event of a node: defers appending `tag`.
  sim::Call event(int tag) {
    return sim::Call::to<&DeferringEvents::fire>(
        this, static_cast<std::uint64_t>(tag));
  }
  void fire(sim::Call& ev) {
    sim.defer(sim::Call::to<&DeferringEvents::effect>(this, ev.a));
  }
  void effect(sim::Call& op) { effects.push_back(static_cast<int>(op.a)); }
};

TEST(EventQueueAffinity, DefaultsToSerialAndPreservesFifoTieOrder) {
  DeferringEvents d;  // outside a batch the effects run at once
  sim::EventQueue q;
  q.schedule(10, d.event(1));
  q.schedule(10, sim::Affinity{7}, d.event(2));
  q.schedule(5, sim::Affinity{3}, d.event(3));

  EXPECT_EQ(q.next_time(), 5u);
  EXPECT_EQ(q.next_affinity(), 3u);
  auto first = q.pop();
  EXPECT_EQ(first.affinity, 3u);
  first.call();

  // Equal timestamps fire in scheduling order regardless of affinity.
  EXPECT_EQ(q.next_affinity(), sim::kSerialAffinity);
  q.pop().call();
  EXPECT_EQ(q.next_affinity(), 7u);
  q.pop().call();
  EXPECT_EQ(d.effects, (std::vector<int>{3, 1, 2}));
}

TEST(SimulatorDefer, RunsImmediatelyOutsideParallelBatches) {
  DeferringEvents d;
  auto ev = d.event(5);
  ev();
  EXPECT_EQ(d.effects, (std::vector<int>{5}));
}

TEST(ShardOf, IsAPureFunctionOfAffinityAndJobs) {
  for (sim::Affinity a : {1u, 2u, 17u, 5000u}) {
    EXPECT_EQ(sim::shard_of(a, 4), sim::shard_of(a, 4));
    EXPECT_LT(sim::shard_of(a, 4), 4u);
    EXPECT_EQ(sim::shard_of(a, 1), 0u);
  }
}

TEST(ParallelExecutorEngine, SameTimestampEventsMergeInScheduleOrder) {
  // Node-affine events sharing one timestamp go through the full
  // shard/merge machinery; their deferred effects must replay in
  // scheduling order whatever the worker count.
  for (std::size_t jobs : {1u, 4u}) {
    DeferringEvents d;
    for (int i = 0; i < 8; ++i) {
      d.sim.post_at(100, static_cast<sim::Affinity>(i + 1), d.event(i));
    }
    sim::ParallelExecutor engine(d.sim, {jobs, sim::msec(1)});
    engine.run_until(200);
    EXPECT_EQ(d.effects, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "jobs=" << jobs;
    EXPECT_EQ(d.sim.events_processed(), 8u);
    EXPECT_EQ(d.sim.now(), 200u);
  }
}

TEST(ParallelExecutorEngine, SameTimeEventsOnDifferentBucketsReplayInIdOrder) {
  // 64 nodes spread over every bucket, three timestamps inside one
  // window, ids issued in an order unrelated to the buckets: each thread
  // pops only its own buckets, yet the replay must follow (time, id) at
  // world_jobs 1 (sequential), 2 and 4, and with one worker.
  constexpr int kEvents = 64;
  const auto affinity = [](int i) {
    return static_cast<sim::Affinity>(1 + (i * 37) % 97);
  };
  const auto at = [](int i) { return static_cast<sim::SimTime>(100 + i % 3); };
  for (const std::size_t buckets : {8u, 16u, 32u}) {
    std::set<std::size_t> used;
    for (int i = 0; i < kEvents; ++i) {
      used.insert(sim::shard_of(affinity(i), buckets));
    }
    ASSERT_GT(used.size(), buckets / 2) << "buckets=" << buckets;
  }
  std::vector<int> expected;
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = phase; i < kEvents; i += 3) expected.push_back(i);
  }
  for (const std::size_t jobs : {0u, 1u, 2u, 4u}) {
    DeferringEvents d;
    for (int i = 0; i < kEvents; ++i) d.sim.post_at(at(i), affinity(i), d.event(i));
    if (jobs == 0) {
      d.sim.run_until(sim::msec(1));
    } else {
      sim::ParallelExecutor engine(d.sim, {jobs, sim::msec(1)});
      engine.run_until(sim::msec(1));
      EXPECT_EQ(engine.stats().batches, 1u) << "jobs=" << jobs;
    }
    EXPECT_EQ(d.effects, expected) << "jobs=" << jobs;
    EXPECT_EQ(d.sim.events_processed(), static_cast<std::uint64_t>(kEvents));
  }
}

/// What a skewed batch run leaves behind: every deferred effect in replay
/// order, and each node's own inline event order.
struct SkewLog {
  std::vector<std::pair<sim::SimTime, int>> effects;
  std::vector<std::vector<int>> per_node;
  std::uint64_t events = 0;

  bool operator==(const SkewLog&) const = default;
};

/// Node 1 owns two thirds of every batch; nodes 2..21 own the rest. Each
/// event appends to its node's own state inline, defers two effects and
/// schedules a follow-up two windows later, so every batch replays
/// schedules whose ids decide the next batch's tie order.
struct SkewRun {
  static constexpr int kNodes = 21;
  static constexpr int kGenerations = 6;
  sim::Simulator sim;
  SkewLog log;

  /// The typed event of `node`: a = node, b = generation << 32 | tag.
  sim::Call event(sim::Affinity node, int tag, int generation) {
    return sim::Call::to<&SkewRun::fire>(
        this, node,
        (static_cast<std::uint64_t>(generation) << 32) |
            static_cast<std::uint32_t>(tag));
  }
  void fire(sim::Call& ev) {
    const sim::Affinity node = ev.a;
    const auto tag = static_cast<int>(static_cast<std::uint32_t>(ev.b));
    const auto generation = static_cast<int>(ev.b >> 32);
    log.per_node[node].push_back(tag);
    sim.defer(sim::Call::to<&SkewRun::effect>(
        this, static_cast<std::uint64_t>(tag)));
    sim.defer(sim::Call::to<&SkewRun::effect>(
        this, static_cast<std::uint64_t>(-tag)));
    if (generation + 1 < kGenerations) {
      sim.post_after(sim::msec(2), node,
                     event(node, tag + 1000, generation + 1));
    }
  }
  void effect(sim::Call& op) {
    log.effects.emplace_back(sim.now(), static_cast<int>(op.a));
  }
};

SkewLog run_skewed(std::size_t jobs) {
  SkewRun run;
  run.log.per_node.resize(SkewRun::kNodes + 1);
  int tag = 0;
  for (int i = 0; i < 40; ++i) {
    // Same-time pairs and a spread inside one 1 ms window.
    run.sim.post_at(100 + i / 2, 1, run.event(1, ++tag, 0));
  }
  for (int node = 2; node <= SkewRun::kNodes; ++node) {
    const auto affinity = static_cast<sim::Affinity>(node);
    run.sim.post_at(100 + node, affinity, run.event(affinity, ++tag, 0));
  }
  if (jobs == 0) {
    run.sim.run_until(sim::msec(20));
  } else {
    sim::ParallelExecutor engine(run.sim, {jobs, sim::msec(1)});
    engine.run_until(sim::msec(20));
    EXPECT_GT(engine.stats().batches, 0u);
    EXPECT_GE(engine.stats().max_batch, 60u);
  }
  run.log.events = run.sim.events_processed();
  return run.log;
}

TEST(ParallelExecutorEngine, SkewedBatchKeepsPerNodeOrder) {
  // One node owning most of a batch is the worst case for balancing work
  // across workers: its events must still run in (time, id) order on one
  // worker, and every deferred effect must replay in sequential order.
  const SkewLog sequential = run_skewed(0);
  ASSERT_EQ(sequential.events, 60u * 6u);
  ASSERT_EQ(sequential.per_node[1].size(), 40u * 6u);
  for (std::size_t jobs : {1u, 2u, 3u, 4u, 8u}) {
    EXPECT_TRUE(run_skewed(jobs) == sequential) << "jobs=" << jobs;
  }
}

TEST(ParallelExecutorEngine, IdleWorkersPark) {
  // Between run_until calls the workers must block, not spin: a trial
  // pool hands their cores to other trials.
  DeferringEvents d;
  for (int i = 0; i < 64; ++i) {
    d.sim.post_at(100 + i, static_cast<sim::Affinity>(i + 1), d.event(i));
  }
  sim::ParallelExecutor engine(d.sim, {4, sim::msec(1)});
  engine.run_until(sim::msec(5));
  ASSERT_EQ(d.effects.size(), 64u);

  const auto cpu_seconds = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
  };
  const double before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(cpu_seconds() - before, 0.020);
}

/// Everything observable about one finished experiment, for exact
/// cross-engine comparison.
struct RunFingerprint {
  std::vector<double> series;  // flattened recorder output
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t nat_filtered = 0;
  std::uint64_t dead_receiver = 0;
  std::size_t alive = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t fragments_lost = 0;
  std::uint64_t fragments_reassembled = 0;
  std::uint64_t fragments_expired = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t replaced = 0;      // eclipse respawns
  std::uint64_t reclassified = 0;  // natflap class flips

  bool operator==(const RunFingerprint&) const = default;
};

/// How a run is driven: World::run_until (the engine world_jobs picks),
/// or Simulator::run_until (always the sequential loop).
enum class Drive { World, Simulator };

RunFingerprint run_spec(const run::ExperimentSpec& spec, std::uint64_t seed,
                        std::size_t world_jobs, Drive drive = Drive::World) {
  run::Experiment experiment(spec, seed, world_jobs);
  if (drive == Drive::World) {
    experiment.run();
  } else {
    experiment.world().simulator().run_until(spec.duration());
  }
  RunFingerprint fp;
  if (experiment.estimation() != nullptr) {
    for (const auto& p : experiment.estimation()->series()) {
      fp.series.push_back(p.t_seconds);
      fp.series.push_back(p.sample.avg_error);
      fp.series.push_back(p.sample.max_error);
      fp.series.push_back(p.sample.truth);
      fp.series.push_back(static_cast<double>(p.sample.node_count));
    }
  }
  if (experiment.graph_stats() != nullptr) {
    for (const auto& p : experiment.graph_stats()->series()) {
      fp.series.push_back(p.t_seconds);
      fp.series.push_back(p.avg_path_length);
      fp.series.push_back(p.clustering_coefficient);
      fp.series.push_back(p.unreachable_fraction);
      fp.series.push_back(static_cast<double>(p.edges));
    }
  }
  if (experiment.randomness() != nullptr) {
    for (const auto& p : experiment.randomness()->series()) {
      fp.series.push_back(p.t_seconds);
      fp.series.push_back(p.chi2);
      fp.series.push_back(p.chi2_z);
      fp.series.push_back(p.repeat_ratio);
      fp.series.push_back(p.bias_ratio);
      fp.series.push_back(static_cast<double>(p.nodes));
      fp.series.push_back(static_cast<double>(p.edges_observed));
    }
  }
  const auto scenario = experiment.scenario_stats();
  fp.replaced = scenario.replaced;
  fp.reclassified = scenario.reclassified;
  run::World& world = experiment.world();
  fp.events = world.simulator().events_processed();
  const auto& drops = world.network().drops();
  fp.delivered = drops.delivered;
  fp.lost = drops.loss;
  fp.nat_filtered = drops.nat_filtered;
  fp.dead_receiver = drops.dead_receiver;
  fp.fragments_sent = drops.fragments_sent;
  fp.fragments_lost = drops.fragments_lost;
  fp.fragments_reassembled = drops.fragments_reassembled;
  fp.fragments_expired = drops.fragments_expired;
  fp.delivered_bytes = drops.delivered_bytes;
  fp.alive = world.alive_count();
  for (const auto& [node, totals] : world.network().meter().per_node()) {
    fp.bytes_total += totals.bytes_total();
  }
  return fp;
}

void expect_engine_equivalence(const run::ExperimentSpec& spec,
                               std::uint64_t seed) {
  const RunFingerprint sequential = run_spec(spec, seed, 1);
  ASSERT_FALSE(sequential.series.empty());
  for (std::size_t jobs : {2u, 4u}) {
    const RunFingerprint parallel = run_spec(spec, seed, jobs);
    // Element-wise first so a mismatch reports where, then the full
    // fingerprint for the counters.
    ASSERT_EQ(sequential.series.size(), parallel.series.size())
        << "world_jobs=" << jobs;
    for (std::size_t i = 0; i < sequential.series.size(); ++i) {
      ASSERT_EQ(sequential.series[i], parallel.series[i])
          << "world_jobs=" << jobs << " series index " << i;
    }
    EXPECT_TRUE(sequential == parallel) << "world_jobs=" << jobs;
  }
}

TEST(ParallelWorldDeterminism, CroupierPoissonJoins500Nodes) {
  // The ISSUE's acceptance shape: a 500-node croupier run, world-jobs 1
  // vs 4 byte-identical.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier:alpha=25,gamma=50 nodes=500 ratio=0.2 "
      "duration=60");
  expect_engine_equivalence(spec, 42);
}

TEST(ParallelWorldDeterminism, ChurnAndLoss) {
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=300 ratio=0.2 churn=0.02 "
      "churn-at=20 loss=0.05 duration=50");
  expect_engine_equivalence(spec, 7);
}

TEST(ParallelWorldDeterminism, NatIdProtocolStaysSerialized) {
  // NAT-ID handlers mutate the shared bootstrap registry; the delivery
  // affinity policy must pin them to the serial path.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=200 ratio=0.3 natid=1 "
      "duration=40");
  expect_engine_equivalence(spec, 11);
}

TEST(ParallelWorldDeterminism, CatastropheUnderGozar) {
  // Cross-protocol + mass kill mid-run (fig. 7b shape); graph recording
  // exercises the other recorder path.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=gozar nodes=300 ratio=0.2 catastrophe=0.5 "
      "catastrophe-at=25 record=graph record-every=10 "
      "duration=50");
  expect_engine_equivalence(spec, 3);
}

TEST(ParallelWorldDeterminism, FlashCrowdSurge) {
  // A join surge ramping up and down mid-run: a long train of
  // serial-affinity spawn events interleaved with node-affine gossip —
  // the barrier-heavy shape for the batch former.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier:alpha=25,gamma=50 nodes=200 ratio=0.2 "
      "flash=at:20,publics:80,privates:20,over:8 duration=45");
  expect_engine_equivalence(spec, 13);
}

TEST(ParallelWorldDeterminism, RegionCorrelatedFailure) {
  // A latency-correlated cohort kill: one serial event that reads the
  // latency model and the scenario RNG, then mass-detaches — everything
  // after it must replay identically.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=250 ratio=0.2 "
      "failure=at:20,frac:0.4,corr:region duration=40");
  expect_engine_equivalence(spec, 23);
}

TEST(ParallelWorldDeterminism, StructuredTimeVaryingLoss) {
  // Per-class-pair loss switching on mid-run: the loss die starts
  // rolling (and consuming network RNG) only for some packets from
  // t=15 s — the draw pattern must stay identical across engines.
  run::ExperimentSpec::LossSpec loss;
  loss.pub_pub = 0.05;
  loss.priv_pub = 0.3;
  loss.priv_priv = 0.3;
  loss.after_s = 15.0;
  auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=250 ratio=0.2 duration=40");
  spec.loss = loss;
  expect_engine_equivalence(spec, 29);
}

TEST(ParallelWorldDeterminism, FragmentedShufflesReassembleIdentically) {
  // mtu=64 forces every croupier shuffle through the fragmenter (k = 2):
  // per-receiver reassembly maps mutate inline under node affinity and
  // each message adds a GC event — both must replay identically.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier:alpha=25,gamma=50 nodes=300 ratio=0.2 "
      "mtu=64 duration=50");
  expect_engine_equivalence(spec, 31);
}

TEST(ParallelWorldDeterminism, FecUnderFragmentLossDrawsIdentically) {
  // Per-fragment loss multiplies the network RNG draw count and the FEC
  // decoder exercises the GF(256) elimination on partial arrivals; the
  // draw pattern and reassembly outcomes must not depend on the engine.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=250 ratio=0.2 mtu=64 fec=2 "
      "loss=0.1 duration=45");
  expect_engine_equivalence(spec, 37);
}

TEST(ParallelWorldDeterminism, BandwidthCapDelaysIdentically) {
  // Token buckets are charged from the serial halves in timestamp order;
  // the queueing delay they add to every datagram must be identical
  // whatever the worker count, or delivery times (and therefore every
  // downstream shuffle) diverge.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=200 ratio=0.2 mtu=128 "
      "bandwidth=rate:20000,burst:4000 duration=40");
  expect_engine_equivalence(spec, 41);
}

TEST(ParallelWorldDeterminism, ZeroMinLatencyDegeneratesToSameTimestamp) {
  // A constant latency that rounds to 0 us gives min_latency() == 0: the
  // lookahead clamps to 1 us and every batch is same-timestamp only.
  // Zero-delay deliveries then land at the batch's own timestamp — at,
  // not after, the causal floor — and must form the next batch instead
  // of tripping the floor assert (regression: the floor was once the
  // window end, which this workload violates by construction).
  // skew=0: all rounds share timestamps.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=200 ratio=0.2 join=instant skew=0 "
      "latency=constant latency-ms=0.0004 duration=20");
  expect_engine_equivalence(spec, 19);
}

TEST(ParallelWorldDeterminism, ConstantLatencyMaximalBatches) {
  // Constant latency gives the widest causal windows (lookahead = the
  // full latency), the stress case for batch formation.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=cyclon nodes=300 ratio=0.2 latency=constant "
      "latency-ms=50 duration=40");
  expect_engine_equivalence(spec, 5);
}

TEST(ParallelWorldDeterminism, EclipseRespawnsIdentically) {
  // The eclipse tick is one serial event that snapshots the target's
  // view, mass-kills and respawns — every respawned node's RNG lineage
  // and first-round schedule must replay identically, and the audit
  // recorder folds the resulting in-degree skew into the fingerprint.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier:alpha=25,gamma=50 nodes=250 ratio=0.2 "
      "eclipse=target:1,at:15,period:2 record=randomness "
      "record-every=10 duration=40");
  expect_engine_equivalence(spec, 43);
}

TEST(ParallelWorldDeterminism, NatFlapReclassifiesIdentically) {
  // NAT flapping tears protocols down and rebuilds them in place with
  // epoch-tagged RNG forks; pending round events of the old epoch must
  // no-op identically under every engine, and nylon's punch chains are
  // the workload most entangled with the flipped classes.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=nylon nodes=200 ratio=0.2 "
      "natflap=frac:0.1,at:15,period:5 record=randomness "
      "record-every=10 duration=40");
  expect_engine_equivalence(spec, 47);
}

TEST(ParallelWorldDeterminism, HubAdversaryUnderGozar) {
  // Hub shims answer shuffles and hijack relays from inside the normal
  // delivery path (node-affine events); their poisoned responses must
  // interleave identically with honest traffic.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=gozar nodes=250 ratio=0.2 adversary=hubs:2 "
      "record=randomness record-every=10 duration=40");
  expect_engine_equivalence(spec, 53);
}

TEST(ParallelWorldEngine, SimulatorRunUntilSeesBucketedEvents) {
  // world_jobs=4 splits the node-affine events over per-bucket heaps;
  // the sequential loop driving that same world must run the same
  // events in the same order as the parallel engine does — and as a
  // world_jobs=1 world does.
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=300 ratio=0.2 churn=0.02 churn-at=10 "
      "duration=30");
  const RunFingerprint engine = run_spec(spec, 17, 4);
  const RunFingerprint simulator = run_spec(spec, 17, 4, Drive::Simulator);
  ASSERT_FALSE(engine.series.empty());
  EXPECT_GT(engine.events, 0u);
  EXPECT_TRUE(engine == simulator);
  EXPECT_TRUE(engine == run_spec(spec, 17, 1));
}

TEST(ParallelWorldEngine, ReportsBatchingStats) {
  const auto spec = run::ExperimentSpec::parse(
      "protocol=croupier nodes=300 ratio=0.2 duration=30");
  run::Experiment experiment(spec, 1, /*world_jobs=*/4);
  EXPECT_NE(experiment.world().engine_stats(), nullptr);
  experiment.run();
  const auto* stats = experiment.world().engine_stats();
  ASSERT_NE(stats, nullptr);
  // Steady-state gossip must actually form multi-event batches, or the
  // engine silently degenerated to serial execution.
  EXPECT_GT(stats->batches, 0u);
  EXPECT_GT(stats->batched_events, stats->batches);
  EXPECT_GE(stats->max_batch, 2u);

  run::Experiment sequential(spec, 1, /*world_jobs=*/1);
  EXPECT_EQ(sequential.world().engine_stats(), nullptr);
}

}  // namespace
}  // namespace croupier
