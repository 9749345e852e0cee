// Randomized property test for the spec text format: for hundreds of
// seeded random specs drawn across every scenario family,
// parse(to_string(s)) must reproduce s exactly (field-for-field, via the
// defaulted operator==), to_string must be a fixed point, and validate()
// must agree with the generator's constraints. The spec string is the
// experiment's durable identity (CSV headers, BENCH provenance, lab
// --spec=...), so any asymmetry here silently forks provenance from
// reality.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/spec.hpp"
#include "sim/rng.hpp"

namespace croupier {
namespace {

using run::ExperimentSpec;

/// Uniform double in [lo, hi). fmt_double escalates precision until the
/// text parses back bit-exact, so arbitrary doubles are fair game — the
/// generator does not need to stay on a printable grid.
double uniform(sim::RngStream& rng, double lo, double hi) {
  return lo + rng.next_double() * (hi - lo);
}

ExperimentSpec random_spec(sim::RngStream& rng) {
  ExperimentSpec s;

  static const std::vector<std::string> kProtocols = {
      "croupier", "croupier:alpha=25,gamma=50", "cyclon",
      "gozar",    "nylon",                      "arrg"};
  s.protocol = kProtocols[rng.index(kProtocols.size())];
  s.nodes = 1 + rng.index(5000);
  s.ratio = rng.chance(0.1) ? (rng.chance(0.5) ? 0.0 : 1.0)
                            : uniform(rng, 0.0, 1.0);

  switch (rng.index(3)) {
    case 0: s.join = ExperimentSpec::JoinKind::Poisson; break;
    case 1: s.join = ExperimentSpec::JoinKind::Fixed; break;
    default: s.join = ExperimentSpec::JoinKind::Instant; break;
  }
  if (rng.chance(0.5)) {
    s.join_public_ms = uniform(rng, 0.1, 200.0);
    s.join_private_ms = uniform(rng, 0.1, 200.0);
  }

  if (rng.chance(0.3)) {
    s.step_publics = rng.index(50);
    s.step_privates = rng.index(50);
    s.step_at_s = uniform(rng, 0.0, 100.0);
    s.step_every_ms = uniform(rng, 1.0, 100.0);
  }
  if (rng.chance(0.3)) {
    s.flash_publics = rng.index(100);
    s.flash_privates = rng.index(100);
    s.flash_at_s = uniform(rng, 0.0, 100.0);
    s.flash_over_s = uniform(rng, 0.5, 30.0);
  }
  if (rng.chance(0.3)) {
    s.churn = uniform(rng, 0.0, 0.99);
    s.churn_at_s = uniform(rng, 0.0, 100.0);
  }
  if (rng.chance(0.3)) {
    s.catastrophe = uniform(rng, 0.0, 1.0);
    s.catastrophe_at_s = uniform(rng, 0.0, 100.0);
  }
  if (rng.chance(0.3)) {
    s.failure_frac = uniform(rng, 0.0, 1.0);
    s.failure_at_s = uniform(rng, 0.0, 100.0);
    switch (rng.index(4)) {
      case 0: s.failure_corr = ExperimentSpec::FailureCorr::Uniform; break;
      case 1: s.failure_corr = ExperimentSpec::FailureCorr::Region; break;
      case 2: s.failure_corr = ExperimentSpec::FailureCorr::Public; break;
      default: s.failure_corr = ExperimentSpec::FailureCorr::Private; break;
    }
  }
  if (rng.chance(0.3)) {
    s.eclipse_target = rng.index(s.nodes + 1);  // 0 = off
    s.eclipse_at_s = uniform(rng, 0.0, 100.0);
    s.eclipse_period_s = uniform(rng, 0.1, 20.0);
  }
  if (rng.chance(0.3) && s.ratio < 1.0) {
    s.natflap_frac = uniform(rng, 0.0, 1.0);
    s.natflap_at_s = uniform(rng, 0.0, 100.0);
    s.natflap_period_s = uniform(rng, 0.1, 30.0);
  }
  if (rng.chance(0.2) && s.nodes > 1) {
    s.adversary_hubs = 1 + rng.index(std::min<std::size_t>(s.nodes - 1, 4));
  }

  if (rng.chance(0.4)) {
    if (rng.chance(0.5)) {
      s.loss = ExperimentSpec::LossSpec(uniform(rng, 0.0, 0.99));
    } else {
      s.loss.pub_pub = uniform(rng, 0.0, 0.99);
      s.loss.pub_priv = uniform(rng, 0.0, 0.99);
      s.loss.priv_pub = uniform(rng, 0.0, 0.99);
      s.loss.priv_priv = uniform(rng, 0.0, 0.99);
      s.loss.after_s = uniform(rng, 0.0, 100.0);
    }
  }

  if (rng.chance(0.4)) {
    s.mtu = 21 + rng.index(2000);
    if (rng.chance(0.5)) s.fec_repair = rng.index(5);
    if (rng.chance(0.3)) s.fec_rate = uniform(rng, 0.0, 2.0);
  }
  if (rng.chance(0.3)) {
    s.bandwidth_bps = 1000 + rng.index(1000000);
    if (rng.chance(0.5)) s.bandwidth_burst = 100 + rng.index(100000);
  }

  if (rng.chance(0.3)) s.skew = uniform(rng, 0.0, 0.99);
  if (rng.chance(0.3)) s.private_round_scale = uniform(rng, 0.1, 4.0);
  switch (rng.index(3)) {
    case 0: s.latency = run::World::LatencyKind::King; break;
    case 1: s.latency = run::World::LatencyKind::Constant; break;
    default: s.latency = run::World::LatencyKind::Coordinate; break;
  }
  if (rng.chance(0.3)) s.latency_ms = uniform(rng, 0.1, 500.0);
  if (rng.chance(0.3)) s.round_ms = uniform(rng, 10.0, 5000.0);
  s.natid = rng.chance(0.2);

  switch (rng.index(5)) {
    case 0: s.record = ExperimentSpec::RecordKind::None; break;
    case 1: s.record = ExperimentSpec::RecordKind::Estimation; break;
    case 2: s.record = ExperimentSpec::RecordKind::Graph; break;
    case 3: s.record = ExperimentSpec::RecordKind::GraphSampled; break;
    default: s.record = ExperimentSpec::RecordKind::Randomness; break;
  }
  if (rng.chance(0.3)) s.record_every_s = uniform(rng, 0.0, 60.0);
  s.duration_s = uniform(rng, 1.0, 500.0);
  return s;
}

TEST(SpecRoundtripProperty, ParseOfToStringIsIdentity) {
  sim::RngStream rng(0xD1CE);
  for (int i = 0; i < 500; ++i) {
    const ExperimentSpec s = random_spec(rng);
    ASSERT_NO_THROW(s.validate()) << "iteration " << i << ": generator "
                                  << "produced an invalid spec\n"
                                  << s.to_string();
    const std::string text = s.to_string();
    ExperimentSpec back;
    ASSERT_NO_THROW(back = ExperimentSpec::parse(text))
        << "iteration " << i << ": " << text;
    EXPECT_EQ(back, s) << "iteration " << i << ": parse(to_string) diverged\n"
                       << "  emitted:  " << text << "\n"
                       << "  reparsed: " << back.to_string();
    // Fixed point: re-emitting the reparsed spec changes nothing.
    EXPECT_EQ(back.to_string(), text) << "iteration " << i;
  }
}

/// FNV-1a over the concatenated canonical text of the generator's 500
/// specs (newline-terminated), pinning every emit rule at once: key
/// order, default omission, number formatting and composite subkeys.
TEST(SpecRoundtripProperty, CanonicalTextDigestIsPinned) {
  sim::RngStream rng(0xD1CE);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 500; ++i) {
    for (const char c : random_spec(rng).to_string() + "\n") {
      digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(digest, 0xd10f772740764803ULL);
}

/// Each composite key has its own emit rule; one exact string per form.
TEST(SpecRoundtripProperty, CompositeFormsHaveExactCanonicalText) {
  const std::string head = "protocol=croupier nodes=1000 ratio=0.2 ";
  const std::pair<const char*, const char*> kCases[] = {
      // flash, failure, eclipse and natflap emit every subkey.
      {"flash=publics:10", "flash=at:60,publics:10,privates:0,over:10"},
      {"failure=frac:0.3", "failure=at:60,frac:0.3,corr:region"},
      {"eclipse=5", "eclipse=target:5,at:60,period:1"},
      {"natflap=0.1", "natflap=frac:0.1,at:60,period:10"},
      {"adversary=2", "adversary=hubs:2"},
      // bandwidth keeps its bare form while the burst is defaulted.
      {"bandwidth=rate:20000", "bandwidth=20000"},
      {"bandwidth=burst:4000,rate:20000", "bandwidth=rate:20000,burst:4000"},
      // fec omits repair:0 and is bare while the rate is zero.
      {"mtu=64 fec=repair:2", "mtu=64 fec=2"},
      {"mtu=64 fec=rate:0.5", "mtu=64 fec=rate:0.5"},
      {"mtu=64 fec=rate:0.25,repair:1", "mtu=64 fec=repair:1,rate:0.25"},
      // Structured loss: non-zero pairs in fixed order, then after.
      {"loss=after:30,priv-any:0.2,pub-pub:0.05",
       "loss=pub-pub:0.05,priv-pub:0.2,priv-priv:0.2,after:30"},
  };
  for (const auto& [in, out] : kCases) {
    EXPECT_EQ(ExperimentSpec::parse(std::string(in) + " duration=200")
                  .to_string(),
              head + out + " duration=200")
        << in;
  }
}

/// Every key of the spec table is documented in SPEC_REFERENCE.md's key
/// table and emitted by at least one generated spec, so a new key cannot
/// be left out of the docs or of this property test.
TEST(SpecRoundtripProperty, EveryKeyIsDocumentedAndGenerated) {
  std::ifstream in(CROUPIER_SPEC_REFERENCE);
  ASSERT_TRUE(in) << CROUPIER_SPEC_REFERENCE;
  std::set<std::string> documented;
  bool in_key_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_key_table = line == "## Spec keys";
    if (in_key_table && line.rfind("| `", 0) == 0) {
      documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  std::string generated;
  sim::RngStream rng(0xD1CE);
  for (int i = 0; i < 500; ++i) {
    generated += ' ';
    generated += random_spec(rng).to_string();
  }
  ASSERT_FALSE(ExperimentSpec::key_docs().empty());
  for (const auto& key : ExperimentSpec::key_docs()) {
    EXPECT_EQ(documented.count(key.name), 1u)
        << key.name << " is missing from the SPEC_REFERENCE.md key table";
    EXPECT_NE(generated.find(" " + key.name + "="), std::string::npos)
        << key.name << " appears in no generated spec";
  }
}

TEST(SpecRoundtripProperty, DefaultSpecRoundTrips) {
  const ExperimentSpec s;
  EXPECT_EQ(ExperimentSpec::parse(s.to_string()), s);
}

TEST(SpecRoundtripProperty, ValidateRejectsOutOfRangeMutations) {
  // One deliberate violation per constraint family — validate() must
  // throw for each, and parse() (which validates) must agree.
  const auto expect_invalid = [](ExperimentSpec s, const char* what) {
    EXPECT_THROW(s.validate(), std::invalid_argument) << what;
  };
  ExperimentSpec s;
  s.loss.pub_pub = 1.0;
  expect_invalid(s, "loss rate of 1.0");
  s = ExperimentSpec{};
  s.mtu = 10;
  expect_invalid(s, "mtu smaller than the fragment header");
  s = ExperimentSpec{};
  s.fec_repair = 2;  // fec without mtu
  expect_invalid(s, "fec without fragmentation");
  s = ExperimentSpec{};
  s.bandwidth_burst = 1000;  // burst without rate
  expect_invalid(s, "bandwidth burst without a rate");
  s = ExperimentSpec{};
  s.ratio = 1.0;
  s.natflap_frac = 0.5;
  expect_invalid(s, "natflap on an all-public population");
  s = ExperimentSpec{};
  s.eclipse_target = s.nodes + 1;
  expect_invalid(s, "eclipse target beyond the population");
  s = ExperimentSpec{};
  s.protocol = "no-such-protocol";
  expect_invalid(s, "unknown protocol");
}

}  // namespace
}  // namespace croupier
