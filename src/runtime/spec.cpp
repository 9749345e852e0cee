#include "runtime/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/registry.hpp"

namespace croupier::run {

namespace {

using Spec = ExperimentSpec;

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

sim::Duration from_ms(double ms) {
  return static_cast<sim::Duration>(std::llround(ms * 1000.0));
}

sim::Duration from_s(double s) {
  return static_cast<sim::Duration>(std::llround(s * 1e6));
}

/// Shortest decimal form that parses back to the exact same double, so
/// to_string() stays human-readable ("0.2", not "0.2000000000000000111")
/// while parse(to_string(s)) == s holds bit-for-bit.
std::string fmt_double(double v) {
  char buf[40];
  for (int precision : {6, 10, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Parses a whole-token double (finite) or unsigned integer (digits
/// only), naming `key` in the error.
template <typename T>
T parse_number(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  T v;
  bool ok = !text.empty();
  if constexpr (std::is_same_v<T, double>) {
    v = std::strtod(text.c_str(), &end);
    ok = ok && !std::isspace(static_cast<unsigned char>(text[0])) &&
         std::isfinite(v);
  } else {
    v = std::strtoull(text.c_str(), &end, 10);
    ok = ok && std::isdigit(static_cast<unsigned char>(text[0]));
  }
  if (!ok || end != text.c_str() + text.size() || errno == ERANGE) {
    fail("spec: malformed value for '" + key + "': \"" + text + "\"");
  }
  return v;
}

template <typename Items>
std::string join(const Items& items, const char* sep) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += sep;
    out += item;
  }
  return out;
}

const Spec& defaults() {
  static const Spec kDefaults;
  return kDefaults;
}

/// Splits a composite value ("at:60,frac:0.3,corr:region") into
/// (subkey, subvalue) pairs; a token without ':' comes back with an
/// empty subkey (the scalar shorthand, e.g. "loss=0.1,after:90").
std::vector<std::pair<std::string, std::string>> split_subkeys(
    const std::string& key, const std::string& value) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    std::size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    const std::string token = value.substr(begin, end - begin);
    if (token.empty()) {
      fail("spec: empty element in '" + key + "' value \"" + value + "\"");
    }
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
      out.emplace_back("", token);
    } else if (colon == 0 || colon == token.size() - 1) {
      fail("spec: malformed '" + key + "' element \"" + token + "\"");
    } else {
      out.emplace_back(token.substr(0, colon), token.substr(colon + 1));
    }
    begin = end + 1;
  }
  return out;
}

/// Parses a `loss=` value: either the historic uniform scalar or the
/// structured per-class-pair form. Subkeys name (sender)-(receiver)
/// class pairs with `any` wildcards; `after:S` delays activation.
Spec::LossSpec parse_loss(const std::string& value) {
  // The rates each pair sets, as bits over {pub-pub, pub-priv, priv-pub,
  // priv-priv}; the empty pair is the bare uniform shorthand.
  static constexpr std::pair<const char*, unsigned> kPairs[] = {
      {"", 0xF},         {"any", 0xF},      {"any-any", 0xF},
      {"pub-pub", 0x1},  {"pub-priv", 0x2}, {"priv-pub", 0x4},
      {"priv-priv", 0x8}, {"pub-any", 0x3}, {"priv-any", 0xC},
      {"any-pub", 0x5},  {"any-priv", 0xA}};
  Spec::LossSpec loss;
  double* const rates[] = {&loss.pub_pub, &loss.pub_priv, &loss.priv_pub,
                           &loss.priv_priv};
  for (const auto& [sub, text] : split_subkeys("loss", value)) {
    if (sub == "after") {
      loss.after_s = parse_number<double>("loss after", text);
      continue;
    }
    const double rate =
        parse_number<double>("loss " + (sub.empty() ? "rate" : sub), text);
    const auto* pair = std::find_if(
        std::begin(kPairs), std::end(kPairs),
        [&sub = sub](const auto& p) { return sub == p.first; });
    if (pair == std::end(kPairs)) {
      fail("spec: loss pair must be one of pub-pub|pub-priv|priv-pub|"
           "priv-priv|pub-any|priv-any|any-pub|any-priv|any (or a bare "
           "uniform rate), got \"" + sub + "\"");
    }
    for (std::size_t i = 0; i < 4; ++i) {
      if ((pair->second >> i & 1U) != 0) *rates[i] = rate;
    }
  }
  return loss;
}

/// The historic scalar when uniform (byte-identical for every
/// pre-existing spec), else the non-zero pairs in fixed order.
std::string format_loss(const Spec::LossSpec& loss) {
  if (loss.is_uniform()) return fmt_double(loss.pub_pub);
  const std::pair<const char*, double> parts[] = {
      {"pub-pub", loss.pub_pub},   {"pub-priv", loss.pub_priv},
      {"priv-pub", loss.priv_pub}, {"priv-priv", loss.priv_priv},
      {"after", loss.after_s}};
  std::string out;
  for (const auto& [name, v] : parts) {
    if (v == 0.0) continue;
    if (!out.empty()) out += ',';
    out += std::string(name) + ':' + fmt_double(v);
  }
  return out;
}

// ---------------------------------------------------------------------
// Value codecs, one per field type. Enum and bool fields are spelled by
// `names`, indexed by underlying value.

using Names = std::vector<const char*>;

template <typename T>
T decode(const std::string& key, const std::string& text, const Names& names) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_number<double>(key, text);
  } else if constexpr (std::is_same_v<T, Spec::LossSpec>) {
    return parse_loss(text);
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end()) {
      fail("spec: " + key + " must be " + join(names, "|") + ", got \"" +
           text + "\"");
    }
    return static_cast<T>(it - names.begin());
  } else {
    const auto v = parse_number<unsigned long long>(key, text);
    if (v > std::numeric_limits<T>::max()) {
      fail("spec: value for '" + key + "' out of range: \"" + text + "\"");
    }
    return static_cast<T>(v);
  }
}

template <typename T>
std::string encode(const T& v, const Names& names) {
  if constexpr (std::is_same_v<T, std::string>) return v;
  else if constexpr (std::is_same_v<T, double>) return fmt_double(v);
  else if constexpr (std::is_same_v<T, Spec::LossSpec>) return format_loss(v);
  else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    return names[static_cast<std::size_t>(v)];
  } else return std::to_string(v);
}

/// The value grammar shown in help text.
template <typename T>
std::string grammar(const Names& names) {
  if constexpr (std::is_same_v<T, std::string>) return "NAME[:k=v,...]";
  else if constexpr (std::is_same_v<T, double>) return "X";
  else if constexpr (std::is_same_v<T, Spec::LossSpec>) {
    return "P|PAIR:P,...,after:X";
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    return join(names, "|");
  } else return "N";
}

// ---------------------------------------------------------------------
// The key table.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bounds validate() enforces on a numeric field; unbounded = unchecked.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  [[nodiscard]] bool bounded() const { return lo > -kInf || hi < kInf; }
  [[nodiscard]] bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  [[nodiscard]] std::string describe() const {
    if (hi < kInf) {
      return std::string("in ") + (lo_open ? "(" : "[") + fmt_double(lo) +
             ", " + fmt_double(hi) + (hi_open ? ")" : "]");
    }
    if (!lo_open) return ">= " + fmt_double(lo);
    return lo == 0.0 ? "positive" : "> " + fmt_double(lo);
  }
};

constexpr Range kNonNegative{0.0};
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kUnit{0.0, 1.0};
constexpr Range kUnitOpen{0.0, 1.0, false, true};

/// One spec field: a scalar key's value or one subkey of a composite,
/// with its codec bound to the ExperimentSpec member by field<Member>().
struct Field {
  const char* sub;  // subkey name; nullptr for a scalar key
  Range range;
  Names names;
  std::string syntax;
  void (*parse)(const Field&, Spec&, const std::string& label,
                const std::string& text);
  std::string (*format)(const Field&, const Spec&);
  bool (*is_default)(const Spec&);
  void (*reset)(Spec&);
  double (*number)(const Spec&);
};

/// Subkey `sub` of a composite key, bound to ExperimentSpec::*Member.
template <auto Member>
Field sub(const char* sub, Range range = {}, Names names = {}) {
  using T = std::remove_cvref_t<decltype(defaults().*Member)>;
  return Field{
      sub, range, names, grammar<T>(names),
      [](const Field& self, Spec& s, const std::string& label,
         const std::string& text) {
        s.*Member = decode<T>(label, text, self.names);
      },
      [](const Field& self, const Spec& s) {
        return encode(s.*Member, self.names);
      },
      [](const Spec& s) { return s.*Member == defaults().*Member; },
      [](Spec& s) { s.*Member = defaults().*Member; },
      [](const Spec& s) {
        if constexpr (std::is_arithmetic_v<T>) {
          return static_cast<double>(s.*Member);
        } else {
          return 0.0;  // never range-checked
        }
      }};
}

/// The value of a scalar key.
template <auto Member>
Field val(Range range = {}, Names names = {}) {
  return sub<Member>(nullptr, range, std::move(names));
}

/// How a key's value is spelled in spec text.
enum class Form : std::uint8_t {
  Always,       // scalar, emitted even at its default (identifying keys)
  Scalar,       // scalar, emitted when it differs from its default
  Subkeys,      // sub:v list; once any subkey is set, all are emitted
  SubkeysBare,  // as Subkeys, and a bare value sets the first subkey
  Sparse,       // bare first subkey while the rest are default, else
                // only the set subkeys; a bare value sets the first
};

struct Key {
  const char* name;
  Form form;
  std::vector<Field> fields;
  const char* doc;

  Key(const char* n, Field value, const char* d, Form f = Form::Scalar)
      : name(n), form(f), fields{std::move(value)}, doc(d) {}
  Key(const char* n, Form f, std::vector<Field> subkeys, const char* d)
      : name(n), form(f), fields(std::move(subkeys)), doc(d) {}

  [[nodiscard]] bool composite() const { return form >= Form::Subkeys; }

  [[nodiscard]] std::string label(const Field& f) const {
    return f.sub == nullptr ? name : std::string(name) + ' ' + f.sub;
  }

  void parse(Spec& s, const std::string& value) const {
    if (!composite()) return fields[0].parse(fields[0], s, name, value);
    // Repeating a composite key resets it wholesale (last wins).
    for (const Field& f : fields) f.reset(s);
    for (const auto& [sub, text] : split_subkeys(name, value)) {
      const auto it = std::find_if(
          fields.begin(), fields.end(), [&, &sub = sub](const Field& f) {
            return sub.empty() ? form != Form::Subkeys && &f == &fields[0]
                               : sub == f.sub;
          });
      if (it == fields.end()) {
        Names subs;
        for (const Field& f : fields) subs.push_back(f.sub);
        fail("spec: " + std::string(name) + " subkey must be " +
             join(subs, "|") + ", got \"" + sub + "\"");
      }
      it->parse(*it, s, label(*it), text);
    }
  }

  /// The value text, or nullopt when the key is omitted (at default).
  [[nodiscard]] std::optional<std::string> format(const Spec& s) const {
    const auto set = [&s](const Field& f) { return !f.is_default(s); };
    const auto text = [&s](const Field& f) { return f.format(f, s); };
    if (form == Form::Always) return text(fields[0]);
    if (std::none_of(fields.begin(), fields.end(), set)) return std::nullopt;
    if (!composite() || (form == Form::Sparse &&
                         std::none_of(fields.begin() + 1, fields.end(), set))) {
      return text(fields[0]);
    }
    std::string out;
    for (const Field& f : fields) {
      if (form == Form::Sparse && !set(f)) continue;
      if (!out.empty()) out += ',';
      out += std::string(f.sub) + ':' + text(f);
    }
    return out;
  }
};

/// Every spec key in canonical to_string() order: parse, to_string, the
/// range checks of validate() and the key docs all read this table.
const std::vector<Key>& keys() {
  using enum Form;
  static const std::vector<Key> kKeys = {
      {"protocol", val<&Spec::protocol>(), "sampler and its options", Always},
      {"nodes", val<&Spec::nodes>(Range{1.0}), "population size", Always},
      {"ratio", val<&Spec::ratio>(kUnit), "public fraction omega", Always},
      {"join", val<&Spec::join>({}, {"poisson", "fixed", "instant"}),
       "join process; instant spawns all before t=0"},
      {"join-public-ms", val<&Spec::join_public_ms>(),
       "public inter-arrival (poisson mean / fixed), ms"},
      {"join-private-ms", val<&Spec::join_private_ms>(),
       "private inter-arrival, ms"},
      {"step-publics", val<&Spec::step_publics>(),
       "second join wave: extra public nodes"},
      {"step-privates", val<&Spec::step_privates>(),
       "second join wave: extra private nodes"},
      {"step-at", val<&Spec::step_at_s>(kNonNegative), "second wave start, s"},
      {"step-every-ms", val<&Spec::step_every_ms>(),
       "second wave inter-arrival, ms"},
      {"flash", Subkeys,
       {sub<&Spec::flash_at_s>("at", kNonNegative),
        sub<&Spec::flash_publics>("publics"),
        sub<&Spec::flash_privates>("privates"),
        sub<&Spec::flash_over_s>("over")},
       "flash crowd: a join surge ramping up, then down"},
      {"churn", val<&Spec::churn>(kUnitOpen),
       "fraction of each class replaced per round"},
      {"churn-at", val<&Spec::churn_at_s>(kNonNegative), "churn start, s"},
      {"catastrophe", val<&Spec::catastrophe>(kUnit),
       "fraction crashing at one instant"},
      {"catastrophe-at", val<&Spec::catastrophe_at_s>(kNonNegative),
       "crash time, s"},
      {"failure", Subkeys,
       {sub<&Spec::failure_at_s>("at", kNonNegative),
        sub<&Spec::failure_frac>("frac", kUnit),
        sub<&Spec::failure_corr>("corr", {},
                                 {"uniform", "region", "public", "private"})},
       "correlated failure: a frac cohort crashes at once"},
      {"eclipse", SubkeysBare,
       {sub<&Spec::eclipse_target>("target"),
        sub<&Spec::eclipse_at_s>("at", kNonNegative),
        sub<&Spec::eclipse_period_s>("period", kPositive)},
       "eclipse: the target's neighbours replaced each period"},
      {"natflap", SubkeysBare,
       {sub<&Spec::natflap_frac>("frac", kUnit),
        sub<&Spec::natflap_at_s>("at", kNonNegative),
        sub<&Spec::natflap_period_s>("period", kPositive)},
       "NAT flapping: frac of nodes flip class each period"},
      {"adversary", SubkeysBare, {sub<&Spec::adversary_hubs>("hubs")},
       "the first hubs public joiners run the hub shim"},
      {"loss", val<&Spec::loss>(), "message loss: uniform or per class pair"},
      {"mtu", val<&Spec::mtu>(), "datagram payload limit, bytes; 0 = off"},
      {"bandwidth", Sparse,
       {sub<&Spec::bandwidth_bps>("rate"),
        sub<&Spec::bandwidth_burst>("burst")},
       "per-node send cap (token bucket), bytes/s"},
      {"fec", Sparse,
       {sub<&Spec::fec_repair>("repair", Range{0.0, 65535.0}),
        sub<&Spec::fec_rate>("rate", kNonNegative)},
       "repair fragments per message (+ ceil(rate*k))"},
      {"skew", val<&Spec::skew>(kUnitOpen), "clock skew fraction"},
      {"private-round-scale", val<&Spec::private_round_scale>(kPositive),
       "slow private rounds by this factor"},
      {"latency", val<&Spec::latency>({}, {"constant", "king", "coordinate"}),
       "latency model"},
      {"latency-ms", val<&Spec::latency_ms>(kPositive),
       "constant-latency delay, ms"},
      {"round-ms", val<&Spec::round_ms>(kPositive), "gossip round period, ms"},
      {"natid", val<&Spec::natid>({}, {"0", "1"}),
       "joiners run the NAT-ID protocol first"},
      {"duration", val<&Spec::duration_s>(kPositive), "horizon, simulated s",
       Always},
      {"record",
       val<&Spec::record>({}, {"none", "estimation", "graph", "graph-sampled",
                               "randomness"}),
       "what the recorder samples"},
      {"record-every", val<&Spec::record_every_s>(kNonNegative),
       "sampling interval, s; 0 = kind default"},
  };
  return kKeys;
}

/// The recorder of kind R with its default options; record-every=0
/// keeps the kind's default interval.
template <typename R>
std::unique_ptr<Recorder> make_recorder(World& world, const Spec& spec) {
  typename R::Options opt;
  if (spec.record_every_s > 0.0) opt.interval = from_s(spec.record_every_s);
  return std::make_unique<R>(world, opt);
}

}  // namespace

net::LossConfig ExperimentSpec::LossSpec::to_config() const {
  net::LossConfig cfg;
  cfg.rate = {{{pub_pub, pub_priv}, {priv_pub, priv_priv}}};
  cfg.after = from_s(after_s);
  return cfg;
}

net::PacketConfig ExperimentSpec::packet_config() const {
  net::PacketConfig cfg;
  cfg.mtu = mtu;
  cfg.bandwidth_bps = bandwidth_bps;
  cfg.bandwidth_burst = bandwidth_burst;
  cfg.fec_repair = fec_repair;
  cfg.fec_rate = fec_rate;
  return cfg;
}

std::size_t ExperimentSpec::publics() const {
  return static_cast<std::size_t>(ratio * static_cast<double>(nodes) + 0.5);
}

sim::Duration ExperimentSpec::duration() const { return from_s(duration_s); }

void ExperimentSpec::validate() const {
  const auto check = [](bool ok, const char* what) {
    if (!ok) fail(std::string("spec: ") + what);
  };
  check(!protocol.empty(), "protocol must be non-empty");
  for (const Key& key : keys()) {
    for (const Field& f : key.fields) {
      if (f.range.bounded() && !f.range.contains(f.number(*this))) {
        fail("spec: " + key.label(f) + " must be " + f.range.describe());
      }
    }
  }
  // Cross-field rules: bounds that depend on another key.
  check(join == JoinKind::Instant ||
            (join_public_ms > 0.0 && join_private_ms > 0.0),
        "join intervals must be positive");
  check(step_publics + step_privates == 0 || step_every_ms > 0.0,
        "step-every-ms must be positive");
  check(flash_publics + flash_privates == 0 || flash_over_s > 0.0,
        "flash over must be positive");
  // Adversarial scenario bounds, rejected here rather than mid-trial:
  // an eclipse target the join processes never spawn would silently
  // no-op forever, natflap on an all-public population has no NAT class
  // to flap, and a hub count >= nodes leaves no honest node to audit.
  check(eclipse_target <= nodes,
        "eclipse target must be a node id in [1, nodes] (0 = off; ids are "
        "assigned 1..nodes in join order)");
  check(natflap_frac == 0.0 || ratio < 1.0,
        "natflap requires a mixed population — with ratio=1 there is no "
        "NAT class to oscillate");
  check(adversary_hubs == 0 || adversary_hubs < nodes,
        "adversary hubs must be < nodes — at least one honest node must "
        "remain");
  if (adversary_hubs > 0) (void)dialect_for_protocol(protocol);
  // Strictly below 1: a rate of 1.0 would silence a class pair outright
  // and used to slip through to the Network's hard assert mid-trial;
  // failing here keeps the error at parse/validate time.
  for (const double rate : {loss.pub_pub, loss.pub_priv, loss.priv_pub,
                            loss.priv_priv}) {
    check(rate >= 0.0 && rate < 1.0,
          "loss rates must be in [0, 1) — 1.0 would drop every packet of "
          "a class pair");
  }
  check(loss.after_s >= 0.0, "loss after must be >= 0");
  // Packet-layer bounds checked here, not inside the Fragmenter/bucket
  // asserts: an mtu smaller than the fragment frame or a bucket with
  // burst but no rate used to crash mid-trial instead of failing at
  // parse/validate time (same rationale as the loss-rate check above).
  check(mtu == 0 || (mtu > net::kFragmentHeaderBytes && mtu <= net::kMaxMtu),
        "mtu must be 0 (off) or in (20, 65507] — a datagram must carry "
        "more than the fragment header");
  check(bandwidth_burst == 0 || bandwidth_bps > 0,
        "bandwidth burst requires a positive rate — a zero-rate bucket "
        "would never drain");
  check((fec_repair == 0 && fec_rate == 0.0) || mtu > 0,
        "fec requires a positive mtu — repair fragments only exist for "
        "fragmented messages");
  // Fail on an unknown protocol name, option key, or malformed option
  // value at validation time, not mid-trial: specs are often validated
  // once and then fanned out over a pool, where a late throw would
  // surface as a TrialPool::wait() rethrow instead of a clean error.
  (void)ProtocolRegistry::instance().make_from_spec(protocol);
}

std::string ExperimentSpec::to_string() const {
  std::string out;
  for (const Key& key : keys()) {
    const auto value = key.format(*this);
    if (!value) continue;
    if (!out.empty()) out += ' ';
    out += std::string(key.name) + '=' + *value;
  }
  return out;
}

ExperimentSpec ExperimentSpec::parse(const std::string& text) {
  ExperimentSpec spec;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == 0 || eq == std::string::npos) {
      fail("spec: expected key=value, got \"" + token + "\"");
    }
    const std::string name = token.substr(0, eq);
    const auto& table = keys();
    const auto key = std::find_if(table.begin(), table.end(),
                                  [&](const Key& k) { return name == k.name; });
    if (key == table.end()) fail("spec: unknown key '" + name + "'");
    key->parse(spec, token.substr(eq + 1));
    // The default 0 means uncapped and is spelled by omitting the key.
    if (name == "bandwidth" && spec.bandwidth_bps == 0) {
      fail("spec: bandwidth rate must be positive (omit the key for an "
           "uncapped link)");
    }
  }
  spec.validate();
  return spec;
}

const std::vector<SpecKeyDoc>& ExperimentSpec::key_docs() {
  static const std::vector<SpecKeyDoc> kDocs = [] {
    std::vector<SpecKeyDoc> docs;
    for (const Key& key : keys()) {
      SpecKeyDoc doc{key.name, {}, key.doc};
      for (const Field& f : key.fields) {
        if (!doc.syntax.empty()) doc.syntax += ',';
        doc.syntax += key.composite() ? f.sub + (':' + f.syntax) : f.syntax;
      }
      if (!key.composite()) {
        const Field& f = key.fields[0];
        doc.doc += " (default " + f.format(f, defaults()) + ")";
      }
      docs.push_back(std::move(doc));
    }
    return docs;
  }();
  return kDocs;
}

Experiment::Experiment(const ExperimentSpec& spec, std::uint64_t seed,
                       std::size_t world_jobs)
    : spec_(spec) {
  spec_.validate();

  World::Config cfg;
  cfg.seed = seed;
  cfg.loss = spec_.loss.to_config();
  cfg.packet = spec_.packet_config();
  cfg.round_period = from_ms(spec_.round_ms);
  cfg.clock_skew = spec_.skew;
  cfg.private_round_scale = spec_.private_round_scale;
  cfg.latency = spec_.latency;
  cfg.constant_latency = from_ms(spec_.latency_ms);
  cfg.use_natid_protocol = spec_.natid;
  // Deliberately a constructor argument, not a spec field: a spec plus a
  // seed identifies the experiment's *results*, and the engine guarantees
  // results are byte-identical for every world_jobs value.
  cfg.world_jobs = world_jobs;
  ProtocolFactory factory =
      ProtocolRegistry::instance().make_from_spec(spec_.protocol);
  if (spec_.adversary_hubs > 0) {
    factory = make_hub_adversary_factory(std::move(factory),
                                         spec_.adversary_hubs,
                                         dialect_for_protocol(spec_.protocol));
  }
  world_ = std::make_unique<World>(cfg, std::move(factory));

  const std::size_t pubs = spec_.publics();
  const std::size_t privs = spec_.privates();
  if (spec_.join == ExperimentSpec::JoinKind::Instant) {
    // With the NAT-ID protocol on, the initial publics are operator
    // seeds: the identification protocol needs existing public
    // responders before any node can classify itself.
    for (std::size_t i = 0; i < pubs; ++i) {
      if (spec_.natid) {
        world_->spawn_seeded(net::NatConfig::open());
      } else {
        world_->spawn(net::NatConfig::open());
      }
    }
    for (std::size_t i = 0; i < privs; ++i) {
      world_->spawn(net::NatConfig::natted());
    }
  }

  // The scenario pipeline, one row per process: {armed?, start, factory}.
  // Row order is arming order and mirrors what the benches always did by
  // hand — joins, then churn, then catastrophe, then recorders — so a
  // spec-built world replays a hand-built one event for event; the newer
  // families (flash crowd, correlated failure, eclipse, natflap) slot in
  // after their nearest historic sibling and exist only in specs with no
  // hand-built twin.
  using Make = std::function<std::unique_ptr<ScenarioProcess>()>;
  const auto joins = [this](bool poisson, std::size_t count,
                            net::NatConfig nat, double gap_ms) -> Make {
    return [this, poisson, count, nat, gap = from_ms(gap_ms)] {
      return poisson ? JoinProcess::poisson(*world_, count, nat, gap)
                     : JoinProcess::fixed(*world_, count, nat, gap);
    };
  };
  const bool poisson = spec_.join == ExperimentSpec::JoinKind::Poisson;
  const bool gradual = spec_.join != ExperimentSpec::JoinKind::Instant;
  const struct {
    bool on;
    sim::SimTime at;
    Make make;
  } pipeline[] = {
      {gradual && pubs > 0, 0,
       joins(poisson, pubs, net::NatConfig::open(), spec_.join_public_ms)},
      {gradual && privs > 0, 0,
       joins(poisson, privs, net::NatConfig::natted(), spec_.join_private_ms)},
      {spec_.step_publics > 0, from_s(spec_.step_at_s),
       joins(false, spec_.step_publics, net::NatConfig::open(),
             spec_.step_every_ms)},
      {spec_.step_privates > 0, from_s(spec_.step_at_s),
       joins(false, spec_.step_privates, net::NatConfig::natted(),
             spec_.step_every_ms)},
      {spec_.flash_publics + spec_.flash_privates > 0, from_s(spec_.flash_at_s),
       [this] {
         return std::make_unique<FlashCrowdProcess>(
             *world_, spec_.flash_publics, spec_.flash_privates,
             from_s(spec_.flash_over_s));
       }},
      {spec_.churn > 0.0, from_s(spec_.churn_at_s),
       [this] {
         return std::make_unique<ChurnProcess>(*world_, spec_.churn,
                                               net::NatConfig::open(),
                                               net::NatConfig::natted());
       }},
      {spec_.catastrophe > 0.0, from_s(spec_.catastrophe_at_s),
       [this] {
         return std::make_unique<CatastropheProcess>(*world_,
                                                     spec_.catastrophe);
       }},
      {spec_.failure_frac > 0.0, from_s(spec_.failure_at_s),
       [this] {
         return std::make_unique<CorrelatedFailureProcess>(
             *world_, spec_.failure_frac, spec_.failure_corr);
       }},
      {spec_.eclipse_target != 0, from_s(spec_.eclipse_at_s),
       [this] {
         return std::make_unique<EclipseProcess>(
             *world_, static_cast<net::NodeId>(spec_.eclipse_target),
             from_s(spec_.eclipse_period_s));
       }},
      {spec_.natflap_frac > 0.0, from_s(spec_.natflap_at_s),
       [this] {
         return std::make_unique<NatFlapProcess>(
             *world_, spec_.natflap_frac, from_s(spec_.natflap_period_s));
       }},
  };
  for (const auto& row : pipeline) {
    if (!row.on) continue;
    scenario_.push_back(row.make());
    scenario_.back()->start(row.at);
  }

  switch (spec_.record) {
    case ExperimentSpec::RecordKind::None:
      break;
    case ExperimentSpec::RecordKind::Estimation:
      recorder_ = make_recorder<EstimationRecorder>(*world_, spec_);
      break;
    case ExperimentSpec::RecordKind::Graph:
      recorder_ = make_recorder<GraphStatsRecorder>(*world_, spec_);
      break;
    case ExperimentSpec::RecordKind::GraphSampled:
      recorder_ = make_recorder<SampledGraphStatsRecorder>(*world_, spec_);
      break;
    case ExperimentSpec::RecordKind::Randomness:
      recorder_ = make_recorder<RandomnessAuditRecorder>(*world_, spec_);
      break;
  }
  // The first sample lands one interval in.
  if (recorder_) recorder_->start(recorder_->interval());
}

ScenarioProcess::Stats Experiment::scenario_stats() const {
  ScenarioProcess::Stats total;
  for (const auto& process : scenario_) {
    const auto s = process->stats();
    total.spawned += s.spawned;
    total.killed += s.killed;
    total.replaced += s.replaced;
    total.reclassified += s.reclassified;
  }
  return total;
}

}  // namespace croupier::run
