#include "runtime/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace croupier::run {

namespace {

/// Inverse CDF of the triangular rate profile on [0, 1] (peak at 1/2):
/// the fraction of the flash-crowd window elapsed when a fraction `u` of
/// the crowd has arrived.
double triangular_inv_cdf(double u) {
  if (u <= 0.5) return std::sqrt(u / 2.0);
  return 1.0 - std::sqrt((1.0 - u) / 2.0);
}

/// Kills floor(fraction * alive) victims picked uniformly one at a time
/// from the shrinking live population — the historic fig. 7b sampling.
std::uint64_t kill_uniform(World& world, double fraction) {
  const auto targets = static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(world.alive_count())));
  auto& rng = world.scenario_rng();
  std::uint64_t killed = 0;
  for (std::size_t i = 0; i < targets; ++i) {
    const auto& alive = world.alive_ids();
    if (alive.empty()) break;
    world.kill(alive[rng.index(alive.size())]);
    ++killed;
  }
  return killed;
}

}  // namespace

// ---------------------------------------------------------------- joins

JoinProcess::JoinProcess(World& world, std::size_t count,
                         const net::NatConfig& nat, sim::Duration mean,
                         sim::Duration fixed)
    : ScenarioProcess(world),
      remaining_(count),
      nat_(nat),
      mean_(mean),
      fixed_(fixed) {}

std::unique_ptr<JoinProcess> JoinProcess::poisson(
    World& world, std::size_t count, const net::NatConfig& nat,
    sim::Duration mean_interarrival) {
  CROUPIER_ASSERT(mean_interarrival > 0);
  return std::unique_ptr<JoinProcess>(
      new JoinProcess(world, count, nat, mean_interarrival, 0));
}

std::unique_ptr<JoinProcess> JoinProcess::fixed(World& world,
                                                std::size_t count,
                                                const net::NatConfig& nat,
                                                sim::Duration interval) {
  CROUPIER_ASSERT(interval > 0);
  return std::unique_ptr<JoinProcess>(
      new JoinProcess(world, count, nat, 0, interval));
}

void JoinProcess::arm(sim::SimTime at) {
  if (remaining_ > 0) guarded_at(at, [this] { step(); });
}

void JoinProcess::step() {
  --remaining_;
  world_.spawn(nat_);
  ++stats_.spawned;
  if (remaining_ == 0) return;
  const sim::Duration gap =
      mean_ > 0 ? static_cast<sim::Duration>(world_.scenario_rng().exponential(
                      static_cast<double>(mean_)))
                : fixed_;
  guarded_after(gap, [this] { step(); });
}

// ---------------------------------------------------------- flash crowd

FlashCrowdProcess::FlashCrowdProcess(World& world, std::size_t publics,
                                     std::size_t privates,
                                     sim::Duration over)
    : ScenarioProcess(world),
      publics_(publics),
      privates_(privates),
      over_(over) {
  CROUPIER_ASSERT(over_ > 0);
}

void FlashCrowdProcess::arm(sim::SimTime at) {
  // A restart resumes the *remaining* crowd (re-ramped over a fresh
  // window) rather than replaying nodes that already joined. Arrival k
  // of N lands at the inverse-CDF grid point of the triangular profile —
  // deterministic, monotone in k, interleaving the two classes purely by
  // timestamp.
  const auto schedule_class = [this, at](std::size_t total,
                                         const net::NatConfig& nat,
                                         std::uint64_t& spawned) {
    const std::size_t count =
        total > spawned ? total - static_cast<std::size_t>(spawned) : 0;
    for (std::size_t k = 0; k < count; ++k) {
      const double u =
          (static_cast<double>(k) + 0.5) / static_cast<double>(count);
      const auto offset = static_cast<sim::Duration>(std::llround(
          triangular_inv_cdf(u) * static_cast<double>(over_)));
      guarded_at(at + offset, [this, nat, &spawned] {
        world_.spawn(nat);
        ++spawned;
        ++stats_.spawned;
      });
    }
  };
  schedule_class(publics_, net::NatConfig::open(), pub_spawned_);
  schedule_class(privates_, net::NatConfig::natted(), priv_spawned_);
}

// ----------------------------------------------------------- catastrophe

CatastropheProcess::CatastropheProcess(World& world, double fraction)
    : ScenarioProcess(world), fraction_(fraction) {
  CROUPIER_ASSERT(fraction_ >= 0.0 && fraction_ <= 1.0);
}

void CatastropheProcess::arm(sim::SimTime at) {
  // Double indirection on purpose: the hand-built fig7b ran the world up
  // to the crash instant and only then scheduled the kill, so the kill
  // executed after every already-queued event of that timestamp.
  // Scheduling the real kill event from inside a same-time event
  // reproduces that tie-break (fresh event ids sort last), keeping
  // spec-built worlds bit-compatible with the historic bench.
  guarded_at(at, [this, at] {
    guarded_at(at, [this] {
      stats_.killed += kill_uniform(world_, fraction_);
    });
  });
}

// ----------------------------------------------------- correlated failure

CorrelatedFailureProcess::CorrelatedFailureProcess(World& world,
                                                   double fraction, Corr corr)
    : ScenarioProcess(world), fraction_(fraction), corr_(corr) {
  CROUPIER_ASSERT(fraction_ >= 0.0 && fraction_ <= 1.0);
}

void CorrelatedFailureProcess::arm(sim::SimTime at) {
  guarded_at(at, [this] { fire(); });
}

void CorrelatedFailureProcess::fire() {
  const auto targets = static_cast<std::size_t>(
      std::floor(fraction_ * static_cast<double>(world_.alive_count())));
  if (targets == 0) return;
  auto& rng = world_.scenario_rng();

  if (corr_ == Corr::Uniform) {
    stats_.killed += kill_uniform(world_, fraction_);
    return;
  }

  if (corr_ == Corr::Region) {
    // One RNG draw picks the epicenter; the cohort is then the targets
    // nearest nodes in the latency model's deterministic metric
    // (ties broken by node id so the kill set is engine-independent).
    const auto& alive = world_.alive_ids();
    const net::NodeId epicenter = alive[rng.index(alive.size())];
    const auto& latency = world_.network().latency_model();
    std::vector<std::pair<sim::Duration, net::NodeId>> by_distance;
    by_distance.reserve(alive.size());
    for (const net::NodeId id : alive) {
      by_distance.emplace_back(latency.base_latency(epicenter, id), id);
    }
    std::sort(by_distance.begin(), by_distance.end());
    for (std::size_t i = 0; i < targets; ++i) {
      world_.kill(by_distance[i].second);
      ++stats_.killed;
    }
    return;
  }

  // NAT-class-biased: the named class dies first (uniform within it);
  // the quota spills into the remaining population only once the class
  // is exhausted.
  const net::NatType type = corr_ == Corr::Public ? net::NatType::Public
                                                  : net::NatType::Private;
  std::vector<net::NodeId> cohort;
  for (const net::NodeId id : world_.alive_ids()) {
    if (world_.type_of(id) == type) cohort.push_back(id);
  }
  const auto victims = rng.sample(std::span<const net::NodeId>(cohort),
                                 std::min(targets, cohort.size()));
  for (const net::NodeId id : victims) {
    world_.kill(id);
    ++stats_.killed;
  }
  if (victims.size() < targets) {
    const std::vector<net::NodeId> rest = world_.alive_ids();
    const auto spill = rng.sample(std::span<const net::NodeId>(rest),
                                  targets - victims.size());
    for (const net::NodeId id : spill) {
      world_.kill(id);
      ++stats_.killed;
    }
  }
}

// ----------------------------------------------------------------- churn

ChurnProcess::ChurnProcess(World& world, double fraction_per_round,
                           net::NatConfig public_cfg,
                           net::NatConfig private_cfg, sim::Duration period)
    : ScenarioProcess(world),
      fraction_(fraction_per_round),
      public_cfg_(public_cfg),
      private_cfg_(private_cfg),
      period_(period) {
  CROUPIER_ASSERT(fraction_ >= 0.0 && fraction_ < 1.0);
  CROUPIER_ASSERT(public_cfg_.nat_type() == net::NatType::Public);
  CROUPIER_ASSERT(private_cfg_.nat_type() == net::NatType::Private);
  CROUPIER_ASSERT(period_ > 0);
}

void ChurnProcess::arm(sim::SimTime at) {
  guarded_at(at, [this] { tick(); });
}

void ChurnProcess::tick() {
  auto replace_class = [this](net::NatType type, double& carry,
                              const net::NatConfig& cfg) {
    if (world_.count(type) == 0) {
      // A carry accrued while the class was populated must not survive
      // its extinction: it would burst-replace the first node of that
      // class to reappear (post-catastrophe refills, ratio=0/1 runs).
      carry = 0.0;
      return;
    }
    carry += fraction_ * static_cast<double>(world_.count(type));
    auto quota = static_cast<std::size_t>(std::floor(carry));
    carry -= static_cast<double>(quota);

    auto& rng = world_.scenario_rng();
    for (std::size_t i = 0; i < quota; ++i) {
      // Pick a victim of the right class by rejection (class shares are
      // large, so this terminates quickly).
      const auto& alive = world_.alive_ids();
      if (alive.empty()) break;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const net::NodeId victim = alive[rng.index(alive.size())];
        if (world_.type_of(victim) == type) {
          world_.kill(victim);
          world_.spawn(cfg);
          ++stats_.replaced;
          break;
        }
      }
    }
  };

  replace_class(net::NatType::Public, carry_public_, public_cfg_);
  replace_class(net::NatType::Private, carry_private_, private_cfg_);
  guarded_after(period_, [this] { tick(); });
}

// ---------------------------------------------------------------- eclipse

EclipseProcess::EclipseProcess(World& world, net::NodeId target,
                               sim::Duration period)
    : ScenarioProcess(world), target_(target), period_(period) {
  CROUPIER_ASSERT(target_ != net::kNilNode);
  CROUPIER_ASSERT(period_ > 0);
}

void EclipseProcess::arm(sim::SimTime at) {
  guarded_at(at, [this] { tick(); });
}

void EclipseProcess::tick() {
  const auto* sampler =
      world_.alive(target_) ? world_.sampler(target_) : nullptr;
  if (sampler != nullptr) {
    // Snapshot, sort and dedupe the target's out-edges so the kill order
    // is a pure function of the view contents.
    std::vector<net::NodeId> neighbors = sampler->out_neighbors();
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    for (const net::NodeId id : neighbors) {
      if (id == target_ || !world_.alive(id)) continue;
      const net::NatType type = world_.type_of(id);
      world_.kill(id);
      world_.spawn(type == net::NatType::Public ? net::NatConfig::open()
                                                : net::NatConfig::natted());
      ++stats_.replaced;
    }
  }
  guarded_after(period_, [this] { tick(); });
}

// ---------------------------------------------------------------- natflap

NatFlapProcess::NatFlapProcess(World& world, double fraction,
                               sim::Duration period)
    : ScenarioProcess(world), fraction_(fraction), period_(period) {
  CROUPIER_ASSERT(fraction_ > 0.0 && fraction_ <= 1.0);
  CROUPIER_ASSERT(period_ > 0);
}

void NatFlapProcess::arm(sim::SimTime at) {
  guarded_at(at, [this] { tick(); });
}

void NatFlapProcess::tick() {
  if (out_phase_) {
    const auto targets = static_cast<std::size_t>(std::floor(
        fraction_ * static_cast<double>(world_.alive_count())));
    const auto victims =
        world_.scenario_rng().sample(
            std::span<const net::NodeId>(world_.alive_ids()), targets);
    for (const net::NodeId id : victims) {
      const net::NatConfig orig = world_.nat_config_of(id);
      flapped_.emplace_back(id, orig);
      world_.reclassify(id, orig.nat_type() == net::NatType::Public
                                ? net::NatConfig::natted()
                                : net::NatConfig::open());
      ++stats_.reclassified;
    }
  } else {
    for (const auto& [id, orig] : flapped_) {
      if (!world_.alive(id)) continue;  // churn/failure got it meanwhile
      world_.reclassify(id, orig);
      ++stats_.reclassified;
    }
    flapped_.clear();
  }
  out_phase_ = !out_phase_;
  guarded_after(period_, [this] { tick(); });
}

}  // namespace croupier::run
