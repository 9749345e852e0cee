// ScenarioProcess subsystem: the composable workload pipeline — flash
// crowds, correlated failures, churn quota-carry edge cases, and the
// uniform start/stop/stats lifecycle.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/scenario.hpp"
#include "runtime/spec.hpp"
#include "test_util.hpp"

namespace croupier::run {
namespace {

using croupier::testing::fast_world_config;
using croupier::testing::populate;

// Regression (PR 5): a churn quota carry accrued while a class was
// populated used to survive the class going extinct, burst-replacing the
// first node of that class to reappear.
TEST(Churn, CarryIsDroppedWhileAClassIsEmpty) {
  World world(fast_world_config(9), make_croupier_factory({}));
  for (int i = 0; i < 3; ++i) world.spawn(net::NatConfig::open());
  const auto lone_private = world.spawn(net::NatConfig::natted());

  ChurnProcess churn(world, 0.95, net::NatConfig::open(),
                     net::NatConfig::natted());
  churn.start(sim::sec(1));
  // First tick (t=1 s): the private carry accrues 0.95 — below quota, so
  // the lone private survives it.
  world.simulator().run_until(sim::msec(1500));
  ASSERT_TRUE(world.alive(lone_private));
  world.kill(lone_private);

  // Two ticks with zero privates: the stale 0.95 must be dropped, not
  // kept simmering.
  world.simulator().run_until(sim::msec(3500));
  const auto fresh = world.spawn(net::NatConfig::natted());
  // Next tick accrues only this tick's 0.95 — still below quota. With
  // the stale carry kept, it would reach 1.9 and replace `fresh`
  // immediately.
  world.simulator().run_until(sim::msec(4500));
  EXPECT_TRUE(world.alive(fresh));
  churn.stop();
}

TEST(FlashCrowd, RampSpreadsArrivalsAcrossTheWindow) {
  // 60 extra nodes over a 4 s window starting at t=5 s: the triangular
  // profile puts exactly half the arrivals in the first half-window.
  Experiment experiment(
      ExperimentSpec::parse("protocol=croupier nodes=20 ratio=0.5 "
                            "join=instant "
                            "flash=at:5,publics:30,privates:10,over:4 "
                            "duration=10 record=none"),
      17);
  experiment.run_until(sim::sec(5));
  EXPECT_EQ(experiment.world().alive_count(), 20u);  // surge not started
  experiment.run_until(sim::sec(7));                 // window midpoint
  EXPECT_EQ(experiment.world().alive_count(), 40u);  // exactly half in
  experiment.run_until(sim::sec(10));
  EXPECT_EQ(experiment.world().alive_count(), 60u);  // everyone arrived
  EXPECT_EQ(experiment.scenario_stats().spawned, 40u);
}

TEST(FlashCrowd, StopHaltsTheSurgeImmediately) {
  World world(fast_world_config(13), make_croupier_factory({}));
  populate(world, 5, 5);
  FlashCrowdProcess flash(world, 20, 0, sim::sec(10));
  flash.start(sim::sec(1));
  world.simulator().run_until(sim::sec(6));  // half the window elapsed
  EXPECT_EQ(flash.stats().spawned, 10u);
  flash.stop();
  flash.stop();  // idempotent
  world.simulator().run_until(sim::sec(20));
  EXPECT_EQ(flash.stats().spawned, 10u);  // queued arrivals were inert
  EXPECT_EQ(world.alive_count(), 20u);

  // Restart resumes the remaining crowd exactly once (no replay of the
  // 10 that already joined, no resurrection of the old inert arrivals).
  flash.start(sim::sec(30));
  world.simulator().run_until(sim::sec(45));
  EXPECT_EQ(flash.stats().spawned, 20u);
  EXPECT_EQ(world.alive_count(), 30u);
}

TEST(CorrelatedFailure, RegionCohortIsLatencyCompact) {
  auto cfg = fast_world_config(11);
  cfg.latency = World::LatencyKind::Coordinate;
  World world(cfg, make_croupier_factory({}));
  populate(world, 10, 40);
  const std::vector<net::NodeId> everyone = world.alive_ids();

  CorrelatedFailureProcess failure(world, 0.3,
                                   CorrelatedFailureProcess::Corr::Region);
  failure.start(sim::sec(5));
  world.simulator().run_until(sim::sec(5) + sim::msec(1));
  EXPECT_EQ(world.alive_count(), 35u);  // floor(0.3 * 50)
  EXPECT_EQ(failure.stats().killed, 15u);

  // The cohort is a latency neighbourhood: victims sit closer to each
  // other (in the model's deterministic metric) than the population at
  // large does on average.
  const auto& latency = world.network().latency_model();
  const auto mean_pairwise = [&latency](const std::vector<net::NodeId>& ids) {
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        sum += static_cast<double>(latency.base_latency(ids[i], ids[j]));
        ++pairs;
      }
    }
    return sum / static_cast<double>(pairs);
  };
  std::vector<net::NodeId> victims;
  for (const net::NodeId id : everyone) {
    if (!world.alive(id)) victims.push_back(id);
  }
  ASSERT_EQ(victims.size(), 15u);
  EXPECT_LT(mean_pairwise(victims), mean_pairwise(everyone));
}

TEST(CorrelatedFailure, UniformModeMatchesCatastropheSampling) {
  // Same seed, same fraction: the uniform cohort must replay the historic
  // fig. 7b sampling draw for draw — one event at the crash instant that
  // kills floor(frac * alive) nodes, each drawn uniformly from the
  // shrinking live population.
  const auto survivors_with = [](bool historic) {
    World world(fast_world_config(21), make_croupier_factory({}));
    populate(world, 10, 40);
    CorrelatedFailureProcess failure(
        world, 0.5, CorrelatedFailureProcess::Corr::Uniform);
    if (historic) {
      world.simulator().schedule_at(sim::sec(5), [&world] {
        const std::size_t targets = world.alive_count() / 2;
        for (std::size_t i = 0; i < targets; ++i) {
          const auto& alive = world.alive_ids();
          world.kill(alive[world.scenario_rng().index(alive.size())]);
        }
      });
    } else {
      failure.start(sim::sec(5));
    }
    world.simulator().run_until(sim::sec(5) + sim::msec(1));
    return world.alive_ids();
  };
  EXPECT_EQ(survivors_with(true), survivors_with(false));
}

// The lifecycle every process kind inherits from ScenarioProcess: a stop
// makes every queued event of the process inert, a restart arms exactly
// one fresh chain, and a destroyed process leaves only inert events
// behind (the sanitizer build checks that none of them touches it).
TEST(ScenarioLifecycle, EveryKindStopsRestartsAndDiesCleanly) {
  using Make = std::function<std::unique_ptr<ScenarioProcess>(World&)>;
  const std::vector<std::pair<const char*, Make>> kinds = {
      {"join",
       [](World& w) {
         return JoinProcess::fixed(w, 4, net::NatConfig::natted(),
                                   sim::sec(1));
       }},
      {"flash",
       [](World& w) {
         return std::make_unique<FlashCrowdProcess>(w, 3, 3, sim::sec(2));
       }},
      {"catastrophe",
       [](World& w) { return std::make_unique<CatastropheProcess>(w, 0.25); }},
      {"failure",
       [](World& w) {
         return std::make_unique<CorrelatedFailureProcess>(
             w, 0.25, CorrelatedFailureProcess::Corr::Region);
       }},
      {"churn",
       [](World& w) {
         return std::make_unique<ChurnProcess>(
             w, 0.1, net::NatConfig::open(), net::NatConfig::natted());
       }},
      {"eclipse",
       [](World& w) {
         return std::make_unique<EclipseProcess>(w, 3, sim::sec(1));
       }},
      {"natflap",
       [](World& w) {
         return std::make_unique<NatFlapProcess>(w, 0.25, sim::sec(2));
       }},
  };
  // Every live node with its class: what a process may change.
  const auto population = [](const World& w) {
    std::vector<std::pair<net::NodeId, net::NatType>> out;
    for (const net::NodeId id : w.alive_ids()) {
      out.emplace_back(id, w.type_of(id));
    }
    return out;
  };
  const auto work = [](const ScenarioProcess::Stats& s) {
    return s.spawned + s.killed + s.replaced + s.reclassified;
  };
  const auto make_world = [] {
    auto w = std::make_unique<World>(fast_world_config(41),
                                     make_croupier_factory({}));
    populate(*w, 10, 30);
    return w;
  };
  for (const auto& [name, make] : kinds) {
    SCOPED_TRACE(name);

    // Stopped before its first event: running past it changes nothing.
    auto quiet = make_world();
    auto process = make(*quiet);
    process->start(sim::sec(5));
    quiet->simulator().run_until(sim::sec(1));
    const auto before = population(*quiet);
    process->stop();
    process->stop();  // idempotent
    EXPECT_FALSE(process->running());
    quiet->simulator().run_until(sim::sec(12));
    EXPECT_EQ(work(process->stats()), 0u);
    EXPECT_EQ(population(*quiet), before);

    // Restarted while the stopped arming's first event is still queued
    // at the same instant: the run must equal a process started once.
    auto restarted = make_world();
    auto twice = make(*restarted);
    twice->start(sim::sec(5));
    restarted->simulator().run_until(sim::sec(1));
    twice->stop();
    restarted->simulator().run_until(sim::sec(3));
    twice->start(sim::sec(5));
    auto reference = make_world();
    auto once = make(*reference);
    reference->simulator().run_until(sim::sec(3));
    once->start(sim::sec(5));
    restarted->simulator().run_until(sim::sec(12));
    reference->simulator().run_until(sim::sec(12));
    EXPECT_GT(work(once->stats()), 0u);
    EXPECT_EQ(work(twice->stats()), work(once->stats()));
    EXPECT_EQ(population(*restarted), population(*reference));

    // Destroyed with its first event queued, and mid-run: every queued
    // event of the process goes inert.
    for (const sim::SimTime death : {sim::sec(4), sim::msec(5500)}) {
      auto orphaned = make_world();
      auto doomed = make(*orphaned);
      doomed->start(sim::sec(5));
      orphaned->simulator().run_until(death);
      doomed.reset();
      const auto at_death = population(*orphaned);
      orphaned->simulator().run_until(sim::sec(12));
      EXPECT_EQ(population(*orphaned), at_death);
    }
  }
}

// Restart contract: start() after stop() must not resurrect events of
// the stopped arming still sitting in the queue.
TEST(ScenarioLifecycle, CatastropheRestartDoesNotResurrectOldSchedule) {
  World world(fast_world_config(31), make_croupier_factory({}));
  populate(world, 5, 20);
  CatastropheProcess failure(world, 0.4);
  failure.start(sim::sec(5));
  world.simulator().run_until(sim::sec(1));
  failure.stop();
  failure.start(sim::sec(10));  // the t=5 events are still queued
  world.simulator().run_until(sim::sec(6));
  EXPECT_EQ(world.alive_count(), 25u);  // old schedule stayed dead
  world.simulator().run_until(sim::sec(10) + sim::msec(1));
  EXPECT_EQ(world.alive_count(), 15u);  // only the restart fired
  EXPECT_EQ(failure.stats().killed, 10u);
}

TEST(ScenarioLifecycle, JoinRestartDoesNotStackChains) {
  World world(fast_world_config(33), make_croupier_factory({}));
  auto join = JoinProcess::fixed(world, 10, net::NatConfig::natted(),
                                 sim::sec(1));
  join->start(0);
  world.simulator().run_until(sim::msec(2500));  // spawns at t=0, 1, 2 s
  EXPECT_EQ(join->stats().spawned, 3u);
  join->stop();
  join->start(sim::sec(5));
  // The zombie chain's tick at t=3 s must stay dead; the restarted
  // chain resumes the remaining quota at t=5 s.
  world.simulator().run_until(sim::msec(4500));
  EXPECT_EQ(join->stats().spawned, 3u);
  world.simulator().run_until(sim::sec(5) + sim::msec(100));
  EXPECT_EQ(join->stats().spawned, 4u);
  EXPECT_EQ(world.alive_count(), 4u);
}

TEST(ScenarioPipeline, ExperimentExposesItsProcesses) {
  Experiment experiment(
      ExperimentSpec::parse("protocol=croupier nodes=40 ratio=0.25 "
                            "flash=at:15,publics:10,privates:10,over:2 "
                            "churn=0.01 churn-at=10 "
                            "failure=at:20,frac:0.2,corr:private "
                            "duration=25 record=none"),
      5);
  // Poisson pubs + poisson privs + flash + churn + failure.
  EXPECT_EQ(experiment.scenario().size(), 5u);
  experiment.run();
  const auto stats = experiment.scenario_stats();
  EXPECT_EQ(stats.spawned, 40u + 20u);   // joins + the full surge
  EXPECT_EQ(stats.killed, 12u);          // floor(0.2 * 60)
  EXPECT_GT(stats.replaced, 0u);
  EXPECT_EQ(experiment.world().alive_count(), 60u - 12u);
}

}  // namespace
}  // namespace croupier::run
