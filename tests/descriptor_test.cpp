// Descriptor wire-format tests (base, Gozar, Nylon variants).
#include <gtest/gtest.h>

#include "baselines/gozar.hpp"
#include "baselines/nylon.hpp"
#include "core/croupier.hpp"
#include "pss/descriptor.hpp"

namespace croupier {
namespace {

TEST(Descriptor, RoundTrip) {
  pss::NodeDescriptor d{42, net::NatType::Private, 17};
  wire::Writer w;
  pss::encode(w, d);
  wire::Reader r(w.data());
  const auto back = pss::decode_descriptor(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.nat_type, net::NatType::Private);
  EXPECT_EQ(back.age, 17u);
}

TEST(Descriptor, WireSizeMatchesConstant) {
  wire::Writer w;
  pss::encode(w, pss::NodeDescriptor{1, net::NatType::Public, 0});
  EXPECT_EQ(w.size(), pss::kDescriptorWireBytes);
}

TEST(Descriptor, AgeSaturatesOnWire) {
  pss::NodeDescriptor d{1, net::NatType::Public, 1000};
  wire::Writer w;
  pss::encode(w, d);
  wire::Reader r(w.data());
  EXPECT_EQ(pss::decode_descriptor(r).age, 255u);
}

TEST(Descriptor, ListRoundTrip) {
  std::vector<pss::NodeDescriptor> v{
      {1, net::NatType::Public, 0},
      {2, net::NatType::Private, 5},
      {3, net::NatType::Public, 250},
  };
  wire::Writer w;
  pss::encode(w, v);
  wire::Reader r(w.data());
  const auto back = pss::decode_descriptors(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, v);
}

TEST(Descriptor, EmptyListRoundTrip) {
  wire::Writer w;
  pss::encode(w, std::vector<pss::NodeDescriptor>{});
  wire::Reader r(w.data());
  EXPECT_TRUE(pss::decode_descriptors(r).empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Descriptor, SelfIsFresh) {
  const auto d = pss::NodeDescriptor::self(9, net::NatType::Private);
  EXPECT_EQ(d.id, 9u);
  EXPECT_EQ(d.age, 0u);
  EXPECT_EQ(d.nat_type, net::NatType::Private);
}

TEST(GozarDescriptor, RoundTripWithParents) {
  baselines::GozarDescriptor d;
  d.id = 7;
  d.nat_type = net::NatType::Private;
  d.age = 3;
  d.parents = {10, 11, 12};
  wire::Writer w;
  baselines::encode(w, d);
  wire::Reader r(w.data());
  const auto back = baselines::decode_gozar_descriptor(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, d);
}

TEST(GozarDescriptor, PublicDescriptorIsSmaller) {
  baselines::GozarDescriptor pub{7, net::NatType::Public, 0, {}};
  baselines::GozarDescriptor priv{8, net::NatType::Private, 0, {1, 2, 3}};
  wire::Writer wp;
  baselines::encode(wp, pub);
  wire::Writer wv;
  baselines::encode(wv, priv);
  // 3 parents x 6 B: the per-descriptor premium Gozar pays.
  EXPECT_EQ(wv.size() - wp.size(), 18u);
}

TEST(NylonDescriptor, LearnedFromIsLocalOnly) {
  baselines::NylonDescriptor d{5, net::NatType::Private, 2, 77};
  wire::Writer w;
  baselines::encode(w, d);
  EXPECT_EQ(w.size(), pss::kDescriptorWireBytes);  // same as base layout
  wire::Reader r(w.data());
  const auto back = baselines::decode_nylon_descriptor(r);
  EXPECT_EQ(back.id, 5u);
  EXPECT_EQ(back.learned_from, net::kNilNode);  // not on the wire
}

TEST(Messages, CroupierShuffleWireSize) {
  // 10 descriptors + 11 estimates: the configuration the paper quotes as
  // ~50 B of estimation payload per shuffle message.
  core::CroupierShuffleReq req;
  req.sender = pss::NodeDescriptor::self(1, net::NatType::Public);
  for (net::NodeId i = 0; i < 5; ++i) {
    req.pub.push_back({i + 10, net::NatType::Public, 1});
    req.pri.push_back({i + 20, net::NatType::Private, 1});
  }
  for (net::NodeId i = 0; i < 10; ++i) {
    req.estimates.push_back({i, 10, 40, 1});
  }
  // 1 type + 8 sender + (1+40) pub + (1+40) pri + (1+50) estimates = 142.
  wire::Writer w;
  req.encode(w);
  EXPECT_EQ(w.size(), 142u);
}

}  // namespace
}  // namespace croupier
