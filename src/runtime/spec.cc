#include "runtime/spec.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"

namespace tictac::runtime {
namespace {

std::vector<std::string> WhitespaceTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::istringstream in{std::string(text)};
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
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

// A lognormal shape (sigma=, jitter=). Shapes past kMaxNoiseSigma are
// rejected here, naming the spec token that carried them; NaN and
// negative values fall through to ClusterConfig::Validate.
double ParseSigma(const std::string& value, const std::string& key,
                  const std::string& setting) {
  const double sigma = ParseNumber<double>(value, key);
  if (sigma > kMaxNoiseSigma) {
    Fail(key + "= must be at most " + FormatDouble(kMaxNoiseSigma) +
         " (a lognormal shape; larger values overflow the sampled times), "
         "got '" + value + "' in '" + setting + "'");
  }
  return sigma;
}

// Bytes with an optional binary suffix: "4194304", "4M", "4MiB", "512K".
std::int64_t ParseBytes(const std::string& value, const std::string& key) {
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
    Fail(key + "= has unknown byte suffix '" + suffix + "' in '" + value +
         "' (use K, M or G)");
  }
  const auto magnitude = ParseNumber<long long>(value.substr(0, digits), key);
  if (magnitude > std::numeric_limits<std::int64_t>::max() / scale ||
      magnitude < std::numeric_limits<std::int64_t>::min() / scale) {
    Fail(key + "= overflows 64-bit bytes: '" + value + "'");
  }
  return magnitude * scale;
}


std::string Join(const std::vector<std::string>& values) {
  std::string joined;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ',';
    joined += values[i];
  }
  return joined;
}

template <typename T, typename Format>
std::string JoinFormatted(const std::vector<T>& values, Format format) {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (const T& value : values) parts.push_back(format(value));
  return Join(parts);
}

// Shared cluster-token parser. Every axis is parsed as a list; the
// single-spec path rejects sizes > 1 afterwards.
void ParseClusterToken(const std::string& token, SweepSpec& sweep) {
  const std::vector<std::string> settings = Split(token, ':');
  sweep.env = settings[0];
  if (sweep.env != "envG" && sweep.env != "envC") {
    Fail("unknown environment '" + sweep.env + "' (known: envG, envC)");
  }
  for (std::size_t i = 1; i < settings.size(); ++i) {
    const std::string& setting = settings[i];
    if (setting == "training") {
      sweep.tasks = {true};
      continue;
    }
    if (setting == "inference") {
      sweep.tasks = {false};
      continue;
    }
    if (setting == "flow") {
      sweep.flow = true;
      continue;
    }
    const std::size_t eq = setting.find('=');
    if (eq == std::string::npos) {
      Fail("malformed cluster setting '" + setting + "' in '" + token + "'");
    }
    const std::string key = setting.substr(0, eq);
    const std::vector<std::string> values = Split(setting.substr(eq + 1), ',');
    if (values.empty() || values.front().empty()) {
      Fail(key + "= has an empty value in '" + token + "'");
    }
    // Every comma-separated value of a sweep axis, parsed into `axis`.
    const auto each = [&](auto& axis, auto parse) {
      axis.clear();
      for (const auto& v : values) axis.push_back(parse(v));
    };
    // The one value of a setting that is not a sweep axis.
    const auto scalar = [&]() -> const std::string& {
      if (values.size() != 1) Fail(key + "= is not a sweep axis");
      return values[0];
    };
    const auto count = [&](const std::string& v) {
      return ParseBoundedInt(v, key, 1, 1 << 20);
    };
    const auto number = [&](const std::string& v) {
      return ParseNumber<double>(v, key);
    };
    if (key == "workers") {
      each(sweep.workers, count);
    } else if (key == "ps") {
      each(sweep.ps, count);
    } else if (key == "task") {
      each(sweep.tasks, [](const std::string& v) {
        if (v != "training" && v != "inference") {
          Fail("task= expects 'inference' or 'training', got '" + v + "'");
        }
        return v == "training";
      });
    } else if (key == "batch") {
      each(sweep.batch_factors, [&](const std::string& v) {
        const double b = number(v);
        if (b <= 0.0) Fail("batch must be > 0, got " + v);
        return b;
      });
    } else if (key == "chunk") {
      each(sweep.chunk_bytes, [&](const std::string& v) {
        const std::int64_t c = ParseBytes(v, key);
        if (c < 0) Fail("chunk must be >= 0, got " + v);
        return c;
      });
    } else if (key == "shard") {
      each(sweep.shards, ParseShardStrategy);
    } else if (key == "topology") {
      each(sweep.topologies, ParseTopology);
    } else if (key == "enforce") {
      each(sweep.enforcements, ParseEnforcement);
    } else if (key == "sigma") {
      each(sweep.tac_oracle_sigmas, [&](const std::string& v) {
        const double sigma = ParseSigma(v, key, setting);
        if (sigma < 0.0) Fail("sigma must be >= 0, got " + v);
        return sigma;
      });
    } else if (key == "jitter") {
      sweep.jitter_sigma = ParseSigma(scalar(), key, setting);
    } else if (key == "ooo") {
      sweep.out_of_order = number(scalar());
    } else if (key == "speeds") {
      each(sweep.worker_speed_factors, number);
    } else if (key == "pods") {
      sweep.pods = count(scalar());
    } else if (key == "oversub") {
      sweep.oversub = number(scalar());
      if (sweep.oversub <= 0.0) Fail("oversub must be > 0, got " + values[0]);
    } else {
      Fail("unknown cluster setting '" + key + "' in '" + token +
           "' (known: workers, ps, training, inference, task, batch, "
           "chunk, shard, topology, enforce, sigma, jitter, ooo, speeds, "
           "flow, pods, oversub)");
    }
  }
}

}  // namespace

std::string FormatDouble(double value) {
  // Shortest representation that parses back to the same bits, so
  // Parse(ToString()) round-trips exactly and Session cache keys never
  // alias two distinct configurations.
  for (int precision = 15; precision <= 17; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (util::ParseDouble(out.str()) == value) return out.str();
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

ClusterConfig ClusterSpec::Build() const {
  ClusterConfig config;
  if (env == "envG") {
    config = EnvG(workers, ps, training);
  } else if (env == "envC") {
    config = EnvC(workers, ps, training);
  } else {
    throw std::invalid_argument("ClusterSpec: unknown environment '" + env +
                                "' (known: envG, envC)");
  }
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

std::string ClusterSpec::ToString() const {
  std::string text = env;
  text += ":workers=" + std::to_string(workers);
  text += ":ps=" + std::to_string(ps);
  text += training ? ":training" : ":inference";
  if (batch_factor != 1.0) text += ":batch=" + FormatDouble(batch_factor);
  if (chunk_bytes != 0) text += ":chunk=" + std::to_string(chunk_bytes);
  if (shard != ShardStrategy::kBytes) {
    text += std::string(":shard=") + ShardStrategyToken(shard);
  }
  if (topology != Topology::kPsFabric) {
    text += std::string(":topology=") + TopologyToken(topology);
  }
  if (enforcement != Enforcement::kHandoffGate) {
    text += std::string(":enforce=") + EnforcementToken(enforcement);
  }
  if (tac_oracle_sigma != 0.0) {
    text += ":sigma=" + FormatDouble(tac_oracle_sigma);
  }
  if (jitter_sigma) text += ":jitter=" + FormatDouble(*jitter_sigma);
  if (out_of_order) text += ":ooo=" + FormatDouble(*out_of_order);
  if (!worker_speed_factors.empty()) {
    text += ":speeds=" + JoinFormatted(worker_speed_factors, FormatDouble);
  }
  if (flow) text += ":flow";
  if (pods != 1) text += ":pods=" + std::to_string(pods);
  if (oversub != 1.0) text += ":oversub=" + FormatDouble(oversub);
  return text;
}

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
  return models.size() * tasks.size() * workers.size() * ps.size() *
         batch_factors.size() * chunk_bytes.size() * shards.size() *
         topologies.size() * enforcements.size() * tac_oracle_sigmas.size() *
         policies.size();
}

std::vector<ExperimentSpec> SweepSpec::Expand() const {
  const auto require_nonempty = [](bool empty, const char* axis) {
    if (empty) {
      throw std::invalid_argument(std::string("SweepSpec: ") + axis +
                                  " is empty — nothing to run");
    }
  };
  require_nonempty(models.empty(), "models");
  require_nonempty(tasks.empty(), "tasks");
  require_nonempty(workers.empty(), "workers");
  require_nonempty(ps.empty(), "ps");
  require_nonempty(batch_factors.empty(), "batch_factors");
  require_nonempty(chunk_bytes.empty(), "chunk_bytes");
  require_nonempty(shards.empty(), "shards");
  require_nonempty(topologies.empty(), "topologies");
  require_nonempty(enforcements.empty(), "enforcements");
  require_nonempty(tac_oracle_sigmas.empty(), "tac_oracle_sigmas");
  require_nonempty(policies.empty(), "policies");
  std::vector<ExperimentSpec> specs;
  specs.reserve(size());
  for (const std::string& model : models) {
    for (const bool training : tasks) {
      for (const int w : workers) {
        for (const int p : ps) {
          for (const double batch : batch_factors) {
            for (const std::int64_t chunk : chunk_bytes) {
              for (const ShardStrategy shard : shards) {
                for (const Topology topology : topologies) {
                  for (const Enforcement enforcement : enforcements) {
                    for (const double sigma : tac_oracle_sigmas) {
                      for (const std::string& policy : policies) {
                        ExperimentSpec spec;
                        spec.model = model;
                        spec.cluster.env = env;
                        spec.cluster.workers = w;
                        spec.cluster.ps = p;
                        spec.cluster.training = training;
                        spec.cluster.batch_factor = batch;
                        spec.cluster.chunk_bytes = chunk;
                        spec.cluster.shard = shard;
                        spec.cluster.topology = topology;
                        spec.cluster.enforcement = enforcement;
                        spec.cluster.tac_oracle_sigma = sigma;
                        spec.cluster.jitter_sigma = jitter_sigma;
                        spec.cluster.out_of_order = out_of_order;
                        spec.cluster.worker_speed_factors =
                            worker_speed_factors;
                        spec.cluster.flow = flow;
                        spec.cluster.pods = pods;
                        spec.cluster.oversub = oversub;
                        spec.policy = policy;
                        spec.iterations = iterations;
                        spec.seed = seed;
                        specs.push_back(std::move(spec));
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return specs;
}

std::string SweepSpec::ToString() const {
  std::string text = env;
  text += ":workers=" + JoinFormatted(workers, [](int w) {
    return std::to_string(w);
  });
  text += ":ps=" + JoinFormatted(ps, [](int p) { return std::to_string(p); });
  if (tasks.size() == 1) {
    text += tasks.front() ? ":training" : ":inference";
  } else {
    text += ":task=" + JoinFormatted(tasks, [](bool training) {
      return std::string(training ? "training" : "inference");
    });
  }
  if (batch_factors != std::vector<double>{1.0}) {
    text += ":batch=" + JoinFormatted(batch_factors, FormatDouble);
  }
  if (chunk_bytes != std::vector<std::int64_t>{0}) {
    text += ":chunk=" + JoinFormatted(chunk_bytes, [](std::int64_t c) {
      return std::to_string(c);
    });
  }
  if (shards != std::vector<ShardStrategy>{ShardStrategy::kBytes}) {
    text += ":shard=" + JoinFormatted(shards, [](ShardStrategy s) {
      return std::string(ShardStrategyToken(s));
    });
  }
  if (topologies != std::vector<Topology>{Topology::kPsFabric}) {
    text += ":topology=" + JoinFormatted(topologies, [](Topology t) {
      return std::string(TopologyToken(t));
    });
  }
  if (enforcements != std::vector<Enforcement>{Enforcement::kHandoffGate}) {
    text += ":enforce=" + JoinFormatted(enforcements, [](Enforcement e) {
      return std::string(EnforcementToken(e));
    });
  }
  if (tac_oracle_sigmas != std::vector<double>{0.0}) {
    text += ":sigma=" + JoinFormatted(tac_oracle_sigmas, FormatDouble);
  }
  if (jitter_sigma) text += ":jitter=" + FormatDouble(*jitter_sigma);
  if (out_of_order) text += ":ooo=" + FormatDouble(*out_of_order);
  if (!worker_speed_factors.empty()) {
    text += ":speeds=" + JoinFormatted(worker_speed_factors, FormatDouble);
  }
  if (flow) text += ":flow";
  if (pods != 1) text += ":pods=" + std::to_string(pods);
  if (oversub != 1.0) text += ":oversub=" + FormatDouble(oversub);
  text += " models=" + Join(models);
  text += " policies=" + Join(policies);
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
  bool saw_models = false;
  bool saw_policies = false;
  bool saw_iterations = false;
  bool saw_seed = false;
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
    if (key == "model" || key == "models") {
      if (saw_models) Fail("duplicate " + key + "= token");
      saw_models = true;
      raw_models = value;
      pending = &raw_models;
    } else if (key == "policy" || key == "policies") {
      if (saw_policies) Fail("duplicate " + key + "= token");
      saw_policies = true;
      sweep.policies.clear();
      for (const auto& p : Split(value, ',')) {
        if (p.empty()) Fail("policies= has an empty entry in '" + value + "'");
        sweep.policies.push_back(p);
      }
    } else if (key == "iterations") {
      if (saw_iterations) Fail("duplicate iterations= token");
      saw_iterations = true;
      sweep.iterations = ParseBoundedInt(value, key, 1, kMaxIterations);
    } else if (key == "seed") {
      if (saw_seed) Fail("duplicate seed= token");
      saw_seed = true;
      sweep.seed = ParseNumber<std::uint64_t>(value, key);
    } else {
      Fail("unknown key '" + key +
           "=' (known: model(s), policy/policies, iterations, seed)");
    }
  }
  if (!saw_models || raw_models.empty()) {
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
