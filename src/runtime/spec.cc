#include "runtime/spec.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <limits>
#include <map>
#include <ranges>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/parse.h"

namespace tictac::runtime {
namespace {

std::vector<std::string> WhitespaceTokens(std::string_view text) {
  std::istringstream in{std::string(text)};
  return {std::istream_iterator<std::string>(in), {}};
}

std::vector<std::string> Split(const std::string& value, char sep) {
  const std::vector<std::string_view> parts = util::Split(value, sep);
  return {parts.begin(), parts.end()};
}

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("spec: " + message);
}

template <typename T>
T ParseNumber(const std::string& value, const std::string& key) {
  return util::ReadNumber<T>("spec", key + "=", value);
}

// Whole-string parse into [min, max]; rejects instead of truncating, so
// workers=4294967297 fails loudly rather than wrapping to 1.
int ParseBoundedInt(const std::string& value, const std::string& key,
                    long long min, long long max) {
  const long long result = ParseNumber<long long>(value, key);
  if (result < min || result > max) {
    Fail(key + " must be in [" + std::to_string(min) + ", " +
         std::to_string(max) + "], got " + value);
  }
  return static_cast<int>(result);
}

// The canonical text of a value; a list joins its values with ','.
std::string Text(const std::string& text) { return text; }
std::string Text(std::integral auto n) { return std::to_string(n); }
std::string Text(double x) { return FormatDouble(x); }
std::string Text(bool training) { return training ? "training" : "inference"; }
std::string Text(ShardStrategy shard) { return ShardStrategyToken(shard); }
std::string Text(Topology topology) { return TopologyToken(topology); }
std::string Text(Enforcement e) { return EnforcementToken(e); }
std::string Text(const std::optional<double>& x) { return Text(*x); }
template <typename T>
std::string Text(const std::vector<T>& values) {
  std::string text;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ',';
    text += Text(values[i]);
  }
  return text;
}

// --- the cluster-setting table ----------------------------------------------

// One value of a cluster setting: `text`, read from the `setting` token
// "key=text" (or "key=a,text,b" on a list). It converts to its text, so
// a reader may take the text alone.
struct SettingValue {
  const std::string& text;
  const std::string& key;
  const std::string& setting;

  operator std::string_view() const { return text; }
};

// Value readers, each with its setting's bounds and error wording.
int ReadCount(const SettingValue& v) {
  return ParseBoundedInt(v.text, v.key, 1, 1 << 20);
}

bool ReadTask(const SettingValue& v) {
  if (v.text != "training" && v.text != "inference") {
    Fail("task= expects 'inference' or 'training', got '" + v.text + "'");
  }
  return v.text == "training";
}

double ReadDouble(const SettingValue& v) {
  return ParseNumber<double>(v.text, v.key);
}

double ReadPositive(const SettingValue& v) {
  const double number = ReadDouble(v);
  if (number <= 0.0) Fail(v.key + " must be > 0, got " + v.text);
  return number;
}

// A lognormal shape (sigma=, jitter=). Shapes past kMaxNoiseSigma are
// rejected here, naming the spec token that carried them; NaN and
// negative jitter= values fall through to ClusterConfig::Validate.
double ReadShape(const SettingValue& v) {
  const double sigma = ReadDouble(v);
  if (sigma > kMaxNoiseSigma) {
    Fail(v.key + "= must be at most " + FormatDouble(kMaxNoiseSigma) +
         " (a lognormal shape; larger values overflow the sampled times), "
         "got '" + v.text + "' in '" + v.setting + "'");
  }
  return sigma;
}

double ReadSigma(const SettingValue& v) {
  const double sigma = ReadShape(v);
  if (sigma < 0.0) Fail(v.key + " must be >= 0, got " + v.text);
  return sigma;
}

// Bytes with an optional binary suffix: "4194304", "4M", "4MiB", "512K".
std::int64_t ReadBytes(const SettingValue& v) {
  const std::string& value = v.text;
  const std::size_t digits = std::min(
      value.find_first_not_of("0123456789", value.starts_with('-') ? 1 : 0),
      value.size());
  std::string suffix = value.substr(digits);
  for (char& c : suffix) c = static_cast<char>(std::tolower(c));
  std::int64_t scale = 1;
  if (suffix == "k" || suffix == "kib") {
    scale = 1ll << 10;
  } else if (suffix == "m" || suffix == "mib") {
    scale = 1ll << 20;
  } else if (suffix == "g" || suffix == "gib") {
    scale = 1ll << 30;
  } else if (!suffix.empty()) {
    Fail(v.key + "= has unknown byte suffix '" + suffix + "' in '" + value +
         "' (use K, M or G)");
  }
  const auto magnitude = ParseNumber<long long>(value.substr(0, digits), v.key);
  if (magnitude > std::numeric_limits<std::int64_t>::max() / scale ||
      magnitude < std::numeric_limits<std::int64_t>::min() / scale) {
    Fail(v.key + "= overflows 64-bit bytes: '" + value + "'");
  }
  if (magnitude < 0) Fail(v.key + " must be >= 0, got " + value);
  return magnitude * scale;
}

// One cluster setting: ClusterSpec::*kCluster, held in SweepSpec::*kSweep
// as the list of its values when it is a sweep axis, else as one value.
// kRead reads one value with its bounds and error wording. A row without
// one is a bare flag: it sets the member to `flag` and is printed while
// the member holds it.
template <auto kCluster, auto kSweep, auto kRead = nullptr>
struct Key {
  using Value =
      std::remove_cvref_t<decltype(std::declval<ClusterSpec&>().*kCluster)>;
  using Field =
      std::remove_cvref_t<decltype(std::declval<SweepSpec&>().*kSweep)>;
  static constexpr bool kFlag = std::is_null_pointer_v<decltype(kRead)>;
  static constexpr bool kListed = !std::is_same_v<Value, Field>;
  static constexpr bool kAxis = kListed && !kFlag;

  std::string_view name;
  // What a repeat counts against: `name`, or the row whose value a flag
  // spells ("training" is task=training).
  std::string_view key = name;
  bool always_printed = false;  // else omitted at the ClusterSpec default
  bool flag = true;

  // Sets the sweep from the values after "name=" (a flag has none).
  void Parse(const std::string& setting, const std::vector<std::string>& values,
             SweepSpec& sweep) const {
    const std::string written(name);
    Field& field = sweep.*kSweep;
    if constexpr (kFlag) {
      field = Field{flag};
    } else if constexpr (std::ranges::range<Field>) {
      field.clear();
      for (const std::string& v : values) {
        field.push_back(kRead(SettingValue{v, written, setting}));
      }
    } else {
      if (values.size() != 1) Fail(written + "= is not a sweep axis");
      field = kRead(SettingValue{values[0], written, setting});
    }
  }

  static const Value& Of(const ClusterSpec& c) { return c.*kCluster; }
  static const Field& Of(const SweepSpec& s) { return s.*kSweep; }

  // "=v1,v2" (a flag: ""), or nullopt where the canonical form omits it.
  template <typename Spec>
  std::optional<std::string> Print(const Spec& spec) const {
    const auto& field = Of(spec);
    using F = std::remove_cvref_t<decltype(field)>;
    if constexpr (kFlag) {
      if (field == F{flag}) return "";
    } else if (always_printed || field != F{Of(ClusterSpec{})}) {
      return "=" + Text(field);
    }
    return std::nullopt;
  }
  std::size_t Size(const SweepSpec& sweep) const {
    if constexpr (kListed) return Of(sweep).size();
    return 1;
  }
  // Sets the cluster from value `index` of a list, or from the one value.
  void Copy(const SweepSpec& sweep, std::size_t index,
            ClusterSpec& cluster) const {
    if constexpr (kListed) {
      cluster.*kCluster = Of(sweep)[index];
    } else {
      cluster.*kCluster = Of(sweep);
    }
  }
};

using C = ClusterSpec;
using S = SweepSpec;

// One row per cluster setting, in canonical print order; a printed flag
// stands for the rows after it that share its key. The names in order are
// the "known:" list. Parsing, both ToStrings, SweepSpec::size() and
// Expand walk this table.
constexpr std::tuple kClusterKeys{
    Key<&C::workers, &S::workers, ReadCount>{.name = "workers",
                                             .always_printed = true},
    Key<&C::ps, &S::ps, ReadCount>{.name = "ps", .always_printed = true},
    Key<&C::training, &S::tasks>{.name = "training", .key = "task"},
    Key<&C::training, &S::tasks>{
        .name = "inference", .key = "task", .flag = false},
    Key<&C::training, &S::tasks, ReadTask>{.name = "task",
                                           .always_printed = true},
    Key<&C::batch_factor, &S::batch_factors, ReadPositive>{"batch"},
    Key<&C::chunk_bytes, &S::chunk_bytes, ReadBytes>{"chunk"},
    Key<&C::shard, &S::shards, ParseShardStrategy>{"shard"},
    Key<&C::topology, &S::topologies, ParseTopology>{"topology"},
    Key<&C::enforcement, &S::enforcements, ParseEnforcement>{"enforce"},
    Key<&C::tac_oracle_sigma, &S::tac_oracle_sigmas, ReadSigma>{"sigma"},
    Key<&C::jitter_sigma, &S::jitter_sigma, ReadShape>{"jitter"},
    Key<&C::out_of_order, &S::out_of_order, ReadDouble>{"ooo"},
    Key<&C::worker_speed_factors, &S::worker_speed_factors, ReadDouble>{
        "speeds"},
    Key<&C::flow, &S::flow>{"flow"},
    Key<&C::pods, &S::pods, ReadCount>{"pods"},
    Key<&C::oversub, &S::oversub, ReadPositive>{"oversub"},
};

// Calls `visit` on every row, in table order.
template <typename Visit>
void ForEachKey(Visit&& visit) {
  std::apply([&](const auto&... row) { (visit(row), ...); }, kClusterKeys);
}

// Expand's nest between model (outermost) and policy (fastest). Not the
// table order: Session row order and Runner-cache reuse depend on it.
constexpr std::string_view kNestOrder[] = {
    "task", "workers", "ps", "batch", "chunk",
    "shard", "topology", "enforce", "sigma"};

// The base environment `name`; throws, after `prefix`, if it is unknown.
auto FindEnvironment(const std::string& name, const std::string& prefix) {
  if (name != "envG" && name != "envC") {
    throw std::invalid_argument(prefix + "unknown environment '" + name +
                                "' (known: envG, envC)");
  }
  return name == "envG" ? EnvG : EnvC;
}

// Every axis is parsed as a list; the single-spec path rejects sizes > 1
// afterwards.
void ParseClusterToken(const std::string& token, SweepSpec& sweep) {
  const std::vector<std::string> settings = Split(token, ':');
  sweep.env = settings[0];
  FindEnvironment(sweep.env, "spec: ");
  std::map<std::string_view, std::string_view> seen;  // key → its setting
  for (std::size_t i = 1; i < settings.size(); ++i) {
    const std::string& setting = settings[i];
    const std::size_t eq = setting.find('=');
    const bool bare = eq == std::string::npos;
    const std::string key = setting.substr(0, eq);
    std::vector<std::string> values;
    if (!bare) {
      values = Split(setting.substr(eq + 1), ',');
      if (values.front().empty()) {
        Fail(key + "= has an empty value in '" + token + "'");
      }
    }
    bool known = false;
    ForEachKey([&](const auto& row) {
      if (row.name != key || row.kFlag != bare) return;
      known = true;
      const auto [first, fresh] = seen.emplace(row.key, row.name);
      if (!fresh) {
        Fail("duplicate cluster setting '" + key + "' in '" + token + "'" +
             (first->second == key
                  ? ""
                  : " (already set by '" + std::string(first->second) +
                        "')"));
      }
      row.Parse(setting, values, sweep);
    });
    if (known) continue;
    if (bare) {
      Fail("malformed cluster setting '" + setting + "' in '" + token + "'");
    }
    std::string names;
    ForEachKey([&](const auto& row) {
      names += (names.empty() ? "" : ", ") + std::string(row.name);
    });
    Fail("unknown cluster setting '" + key + "' in '" + token +
         "' (known: " + names + ")");
  }
}

// The cluster half of a canonical form.
template <typename Spec>
std::string ClusterText(const Spec& spec) {
  std::string text = spec.env;
  std::string_view printed;  // the key of the last row printed
  ForEachKey([&](const auto& row) {
    if (row.key == printed) return;
    if (const std::optional<std::string> value = row.Print(spec)) {
      text += ":" + std::string(row.name) + *value;
      printed = row.key;
    }
  });
  return text;
}

}  // namespace

ClusterConfig ClusterSpec::Build() const {
  ClusterConfig config =
      FindEnvironment(env, "ClusterSpec: ")(workers, ps, training);
  config.batch_factor = batch_factor;
  config.chunk_bytes = chunk_bytes;
  config.shard = shard;
  config.topology = topology;
  config.enforcement = enforcement;
  config.tac_oracle_sigma = tac_oracle_sigma;
  if (jitter_sigma) config.sim.jitter_sigma = *jitter_sigma;
  if (out_of_order) config.sim.out_of_order_probability = *out_of_order;
  config.worker_speed_factors = worker_speed_factors;
  config.flow_fairness = flow;
  config.fabric_pods = pods;
  config.fabric_oversubscription = oversub;
  config.Validate();
  return config;
}

std::string ClusterSpec::ToString() const { return ClusterText(*this); }

std::string ExperimentSpec::ToString() const {
  std::string text = cluster.ToString();
  text += " model=" + model;
  text += " policy=" + policy;
  text += " iterations=" + std::to_string(iterations);
  text += " seed=" + std::to_string(seed);
  return text;
}

ExperimentSpec ExperimentSpec::Parse(std::string_view text) {
  const SweepSpec sweep = SweepSpec::Parse(text);
  if (sweep.size() != 1) {
    Fail("'" + std::string(text) +
         "' describes " + std::to_string(sweep.size()) +
         " runs — list-valued axes need a SweepSpec, not an ExperimentSpec");
  }
  ExperimentSpec spec = sweep.Expand().front();
  spec.BuildCluster();  // validate eagerly so parse-time errors are loud
  return spec;
}

std::size_t SweepSpec::size() const {
  std::size_t size = models.size() * policies.size();
  ForEachKey([&](const auto& row) {
    if (row.kAxis) size *= row.Size(*this);
  });
  return size;
}

std::vector<ExperimentSpec> SweepSpec::Expand() const {
  const auto require_nonempty = [](std::size_t size, std::string_view axis) {
    if (size == 0) {
      throw std::invalid_argument("SweepSpec: " + std::string(axis) +
                                  " is empty — nothing to run");
    }
  };
  require_nonempty(models.size(), "models");
  ExperimentSpec spec;
  spec.cluster.env = env;
  ForEachKey([&](const auto& row) {
    if (!row.kListed) row.Copy(*this, 0, spec.cluster);
  });
  spec.iterations = iterations;
  spec.seed = seed;
  std::vector<ExperimentSpec> specs;
  specs.reserve(size());
  // Sweeps axis kNestOrder[a] and, inside each of its values, the rest.
  const auto nest = [&](const auto& self, std::size_t a) -> void {
    if (a == std::size(kNestOrder)) {
      require_nonempty(policies.size(), "policies");
      for (const std::string& policy : policies) {
        spec.policy = policy;
        specs.push_back(spec);
      }
      return;
    }
    ForEachKey([&](const auto& row) {
      if (row.name != kNestOrder[a]) return;
      require_nonempty(row.Size(*this), row.name);
      for (std::size_t i = 0; i < row.Size(*this); ++i) {
        row.Copy(*this, i, spec.cluster);
        self(self, a + 1);
      }
    });
  };
  for (const std::string& model : models) {
    spec.model = model;
    nest(nest, 0);
  }
  return specs;
}

std::string SweepSpec::ToString() const {
  std::string text = ClusterText(*this);
  text += " models=" + Text(models);
  text += " policies=" + Text(policies);
  text += " iterations=" + std::to_string(iterations);
  text += " seed=" + std::to_string(seed);
  return text;
}

SweepSpec SweepSpec::Parse(std::string_view text) {
  const std::vector<std::string> tokens = WhitespaceTokens(text);
  if (tokens.empty()) Fail("empty spec");
  if (tokens[0].rfind("env", 0) != 0) {
    Fail("spec must start with the cluster (envG:... or envC:...), got '" +
         tokens[0] + "'");
  }
  SweepSpec sweep;
  ParseClusterToken(tokens[0], sweep);

  // model names may contain spaces, so the models= value keeps absorbing
  // subsequent tokens until the next key=value token.
  std::string raw_models;
  std::string* pending = nullptr;
  std::set<std::string> seen;  // model= and models= are one key, as are
                               // policy= and policies=
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (!pending) {
        Fail("unexpected token '" + token +
             "' (did you mean model=... ? model names continue until the "
             "next key=value token)");
      }
      *pending += " " + token;
      continue;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    pending = nullptr;
    const bool is_models = key == "model" || key == "models";
    const bool is_policies = key == "policy" || key == "policies";
    if (!is_models && !is_policies && key != "iterations" && key != "seed") {
      Fail("unknown key '" + key +
           "=' (known: model(s), policy/policies, iterations, seed)");
    }
    if (!seen.insert(is_models ? "models" : is_policies ? "policies" : key)
             .second) {
      Fail("duplicate " + key + "= token");
    }
    if (is_models) {
      raw_models = value;
      pending = &raw_models;
    } else if (is_policies) {
      sweep.policies.clear();
      for (const auto& p : Split(value, ',')) {
        if (p.empty()) Fail("policies= has an empty entry in '" + value + "'");
        sweep.policies.push_back(p);
      }
    } else if (key == "iterations") {
      sweep.iterations = ParseBoundedInt(value, key, 1, kMaxIterations);
    } else {
      sweep.seed = ParseNumber<std::uint64_t>(value, key);
    }
  }
  if (!seen.contains("models") || raw_models.empty()) {
    Fail("model= (or models=) is required, e.g. model=Inception v2");
  }
  for (const std::string_view entry : util::Split(raw_models, ',')) {
    const std::string_view name = util::Trim(entry, " ");  // "a, b" lists
    if (name.empty()) {
      Fail("models= has an empty entry in '" + raw_models + "'");
    }
    sweep.models.emplace_back(name);
  }
  return sweep;
}

}  // namespace tictac::runtime
