// Ratio estimator tests: the maths of paper equations (1)-(9) on
// hand-computed cases, window semantics for α and γ, the wire format and
// quantization at the source.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/estimator.hpp"

namespace croupier::core {
namespace {

EstimatorConfig cfg(std::size_t alpha = 25, std::size_t gamma = 50,
                    std::size_t share = 10) {
  return EstimatorConfig{alpha, gamma, share};
}

TEST(EstimateEntry, RatioDefinition) {
  EXPECT_DOUBLE_EQ((EstimateEntry{1, 1, 4, 0}).ratio(), 0.2);
  EXPECT_DOUBLE_EQ((EstimateEntry{1, 5, 0, 0}).ratio(), 1.0);
  EXPECT_DOUBLE_EQ((EstimateEntry{1, 0, 0, 0}).ratio(), 0.0);
}

TEST(EstimateEntry, WireSizeIsFiveBytes) {
  wire::Writer w;
  encode(w, EstimateEntry{7, 10, 40, 3});
  EXPECT_EQ(w.size(), kEstimateWireBytes);
}

TEST(EstimateEntry, RoundTripSmallCounts) {
  wire::Writer w;
  encode(w, EstimateEntry{7, 10, 40, 3});
  wire::Reader r(w.data());
  const auto back = decode_estimate(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, (EstimateEntry{7, 10, 40, 3}));
}

// Hit counts are quantized where an entry is made: a public node shares
// its window sums already squeezed into the wire's byte range, while its
// own estimate stays exact.
EstimateEntry shared_own_entry(int pub, int priv) {
  RatioEstimator e(7, net::NatType::Public, cfg());
  for (int i = 0; i < pub; ++i) e.count_request(net::NatType::Public);
  for (int i = 0; i < priv; ++i) e.count_request(net::NatType::Private);
  e.begin_round();
  sim::RngStream rng(1);
  const auto shared = e.share(rng);
  EXPECT_EQ(shared.size(), 1u);
  EXPECT_DOUBLE_EQ(*e.local_estimate(),
                   static_cast<double>(pub) / static_cast<double>(pub + priv));
  return shared.empty() ? EstimateEntry{} : shared[0];
}

TEST(EstimateEntry, QuantizationPreservesRatio) {
  // 100 / 400 exceeds the byte range on the private side; both counts
  // must scale, keeping the ratio at 0.2 within 1/255.
  const auto own = shared_own_entry(100, 400);
  EXPECT_EQ(own.origin, 7u);
  EXPECT_NEAR(own.ratio(), 0.2, 1.0 / 255.0);
}

TEST(EstimateEntry, QuantizationNeverErasesMinority) {
  const auto own = shared_own_entry(1, 10000);
  EXPECT_GE(own.pub_hits, 1u);  // minority class must survive
  EXPECT_EQ(own.priv_hits, 255u);
}

TEST(EstimateEntry, WideOriginEscapesWithoutPerturbingNarrowOnes) {
  // Origins past 16 bits (million-node worlds) escape through the
  // 0xffff sentinel to a 4 B id; anything below the sentinel must keep
  // the paper's fixed 5-byte layout bit-for-bit.
  wire::Writer narrow;
  encode(narrow, EstimateEntry{0xfffe, 10, 40, 3});
  EXPECT_EQ(narrow.size(), kEstimateWireBytes);

  for (const net::NodeId origin : {0xffffu, 0x10000u, 1'000'000u}) {
    wire::Writer w;
    encode(w, EstimateEntry{origin, 10, 40, 3});
    EXPECT_EQ(w.size(), kEstimateWireBytes + 4) << origin;
    wire::Reader r(w.data());
    const auto back = decode_estimate(r);
    EXPECT_TRUE(r.exhausted()) << origin;
    EXPECT_EQ(back, (EstimateEntry{origin, 10, 40, 3})) << origin;
  }
}

TEST(EstimateEntry, ListRoundTrip) {
  std::vector<EstimateEntry> v{{1, 2, 8, 0}, {2, 5, 5, 3}};
  wire::Writer w;
  encode(w, v);
  wire::Reader r(w.data());
  EXPECT_EQ(decode_estimates(r), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(RatioEstimator, NoInformationFallsBackToHalf) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  EXPECT_DOUBLE_EQ(e.estimate(), 0.5);
}

TEST(RatioEstimator, LocalEstimateFromHits) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  // Round 1: one public, four private requests -> E = 0.2 (eq. 6).
  e.count_request(net::NatType::Public);
  for (int i = 0; i < 4; ++i) e.count_request(net::NatType::Private);
  e.begin_round();
  ASSERT_TRUE(e.local_estimate().has_value());
  EXPECT_DOUBLE_EQ(*e.local_estimate(), 0.2);
  EXPECT_DOUBLE_EQ(e.estimate(), 0.2);  // eq. 8 with empty M
}

TEST(RatioEstimator, PrivateNodeHasNoLocalEstimate) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.count_request(net::NatType::Public);  // shouldn't happen, but tolerate
  e.begin_round();
  EXPECT_FALSE(e.local_estimate().has_value());
}

TEST(RatioEstimator, WindowSumsAcrossRounds) {
  RatioEstimator e(1, net::NatType::Public, cfg(/*alpha=*/3));
  // Rounds with (pub, priv): (1,1), (0,2), (3,1) -> window 4/9... sums:
  // pub=4, priv=4 -> wait: 1+0+3=4 pub, 1+2+1=4 priv -> E = 0.5.
  e.count_request(net::NatType::Public);
  e.count_request(net::NatType::Private);
  e.begin_round();
  e.count_request(net::NatType::Private);
  e.count_request(net::NatType::Private);
  e.begin_round();
  for (int i = 0; i < 3; ++i) e.count_request(net::NatType::Public);
  e.count_request(net::NatType::Private);
  e.begin_round();
  EXPECT_DOUBLE_EQ(*e.local_estimate(), 0.5);
}

TEST(RatioEstimator, AlphaWindowEvictsOldRounds) {
  RatioEstimator e(1, net::NatType::Public, cfg(/*alpha=*/2));
  // Round 1: all public. Rounds 2,3: all private. With α=2 only the last
  // two rounds count -> E = 0.
  e.count_request(net::NatType::Public);
  e.begin_round();
  e.count_request(net::NatType::Private);
  e.begin_round();
  e.count_request(net::NatType::Private);
  e.begin_round();
  EXPECT_DOUBLE_EQ(*e.local_estimate(), 0.0);
}

TEST(RatioEstimator, MergeCachesForeignEntries) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  const std::vector<EstimateEntry> in{{2, 1, 4, 0}, {3, 1, 3, 0}};
  e.merge(in);
  EXPECT_EQ(e.cached_count(), 2u);
  // eq. 9: mean of 0.2 and 0.25.
  EXPECT_DOUBLE_EQ(e.estimate(), (0.2 + 0.25) / 2.0);
}

TEST(RatioEstimator, MergeSkipsOwnOrigin) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  const std::vector<EstimateEntry> in{{1, 9, 1, 0}};
  e.merge(in);
  EXPECT_EQ(e.cached_count(), 0u);
}

TEST(RatioEstimator, MergeSkipsEmptyEntries) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  const std::vector<EstimateEntry> in{{2, 0, 0, 0}};
  e.merge(in);
  EXPECT_EQ(e.cached_count(), 0u);
}

TEST(RatioEstimator, MergeKeepsNewerPerOrigin) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.merge(std::vector<EstimateEntry>{{2, 1, 1, 5}});
  e.merge(std::vector<EstimateEntry>{{2, 3, 1, 2}});  // newer
  ASSERT_EQ(e.cached_count(), 1u);
  EXPECT_EQ(e.cached()[0].pub_hits, 3u);
  e.merge(std::vector<EstimateEntry>{{2, 9, 9, 7}});  // older: ignored
  EXPECT_EQ(e.cached()[0].pub_hits, 3u);
}

TEST(RatioEstimator, GammaExpiresCachedEntries) {
  RatioEstimator e(1, net::NatType::Private, cfg(/*alpha=*/5, /*gamma=*/3));
  e.merge(std::vector<EstimateEntry>{{2, 1, 4, 0}});
  for (int i = 0; i < 3; ++i) e.begin_round();
  EXPECT_EQ(e.cached_count(), 1u);  // age 3 == γ: still valid
  e.begin_round();
  EXPECT_EQ(e.cached_count(), 0u);  // age 4 > γ: dropped
}

TEST(RatioEstimator, MergeRejectsEntriesBeyondGamma) {
  RatioEstimator e(1, net::NatType::Private, cfg(/*alpha=*/5, /*gamma=*/3));
  e.merge(std::vector<EstimateEntry>{{2, 1, 4, 9}});
  EXPECT_EQ(e.cached_count(), 0u);
}

TEST(RatioEstimator, PublicAveragesOwnPlusCache) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  e.count_request(net::NatType::Public);  // own E = 1.0
  e.begin_round();
  e.merge(std::vector<EstimateEntry>{{2, 0, 1, 0}});  // foreign E = 0.0
  // eq. 8: (0.0 + 1.0) / (1 + 1) = 0.5.
  EXPECT_DOUBLE_EQ(e.estimate(), 0.5);
}

TEST(RatioEstimator, ShareIncludesOwnEntryForPublic) {
  RatioEstimator e(1, net::NatType::Public, cfg());
  e.count_request(net::NatType::Private);
  e.begin_round();
  sim::RngStream rng(1);
  const auto shared = e.share(rng);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0].origin, 1u);
  EXPECT_EQ(shared[0].age, 0u);
}

TEST(RatioEstimator, ShareOmitsOwnEntryForPrivate) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.begin_round();
  sim::RngStream rng(1);
  EXPECT_TRUE(e.share(rng).empty());
}

TEST(RatioEstimator, ShareRespectsLimit) {
  RatioEstimator e(1, net::NatType::Public, cfg(25, 50, /*share=*/5));
  e.count_request(net::NatType::Public);
  e.begin_round();
  std::vector<EstimateEntry> many;
  for (net::NodeId i = 2; i < 30; ++i) many.push_back({i, 1, 4, 0});
  e.merge(many);
  sim::RngStream rng(1);
  const auto shared = e.share(rng);
  EXPECT_EQ(shared.size(), 5u);
  // Own entry always rides along for public nodes.
  const bool has_own = std::any_of(shared.begin(), shared.end(),
                                   [](const auto& s) { return s.origin == 1; });
  EXPECT_TRUE(has_own);
}

TEST(RatioEstimator, CacheAgesWithRounds) {
  RatioEstimator e(1, net::NatType::Private, cfg());
  e.merge(std::vector<EstimateEntry>{{2, 1, 4, 0}});
  e.begin_round();
  e.begin_round();
  ASSERT_EQ(e.cached_count(), 1u);
  EXPECT_EQ(e.cached()[0].age, 2u);
}

TEST(RatioEstimator, TwoNodeGossipConverges) {
  // A public node's local estimate propagates to a private node and both
  // agree on ω.
  RatioEstimator pub(1, net::NatType::Public, cfg());
  RatioEstimator priv(2, net::NatType::Private, cfg());
  sim::RngStream rng(1);
  for (int round = 0; round < 10; ++round) {
    pub.count_request(net::NatType::Public);
    for (int i = 0; i < 4; ++i) pub.count_request(net::NatType::Private);
    pub.begin_round();
    priv.begin_round();
    priv.merge(pub.share(rng));
  }
  EXPECT_NEAR(pub.estimate(), 0.2, 1e-9);
  EXPECT_NEAR(priv.estimate(), 0.2, 1e-9);
}

// Property sweep: the estimator's local window estimate equals the exact
// ratio of injected hits for arbitrary (pub, priv) patterns.
class EstimatorRatioSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EstimatorRatioSweep, WindowRatioExact) {
  const auto [pub_per_round, priv_per_round] = GetParam();
  RatioEstimator e(1, net::NatType::Public, cfg(/*alpha=*/10));
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < pub_per_round; ++i) {
      e.count_request(net::NatType::Public);
    }
    for (int i = 0; i < priv_per_round; ++i) {
      e.count_request(net::NatType::Private);
    }
    e.begin_round();
  }
  const double expected =
      static_cast<double>(pub_per_round) /
      static_cast<double>(pub_per_round + priv_per_round);
  ASSERT_TRUE(e.local_estimate().has_value());
  EXPECT_NEAR(*e.local_estimate(), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    HitPatterns, EstimatorRatioSweep,
    ::testing::Values(std::pair{1, 4}, std::pair{1, 1}, std::pair{3, 1},
                      std::pair{1, 9}, std::pair{7, 3}));

}  // namespace
}  // namespace croupier::core
