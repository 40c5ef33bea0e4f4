// Deterministic, seedable random number generation.
//
// Every stochastic component in the library (baseline random schedules,
// platform jitter, fault injection, synthetic datasets) draws from an
// explicitly seeded Rng so that experiments are reproducible run-to-run.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace tictac::util {

// A thin wrapper around std::mt19937_64 with convenience draws.
//
// Rng is cheap to copy; independent streams should be derived with Fork()
// so that adding draws to one consumer does not perturb another.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Standard normal scaled to (mean, stddev).
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Lognormal such that the *median* of the distribution is `median` and
  // sigma is the shape parameter. Used for platform timing jitter.
  double Lognormal(double median, double sigma) {
    return std::lognormal_distribution<double>(std::log(median),
                                               sigma)(engine_);
  }

  // Bernoulli with probability p of returning true.
  bool Chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Exponential inter-arrival gap with the given rate (events/second);
  // mean 1/rate. Implemented by inverse-CDF over the raw engine bits —
  // not std::exponential_distribution, whose output differs across
  // standard libraries — so a seeded arrival stream (sched::ArrivalSpec)
  // is bit-identical on every platform. Requires rate > 0.
  double Exponential(double rate) {
    return -std::log(Canonical()) / rate;
  }

  // Poisson count with the given mean, via Knuth's product-of-uniforms
  // (portable for the same reason as Exponential; O(mean) draws, fine
  // for the modest burst/batch sizes the schedulers use). mean == 0
  // returns 0; requires mean >= 0 and finite.
  std::int64_t Poisson(double mean) {
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double product = 1.0;
    do {
      product *= Canonical();
      ++k;
    } while (product > limit);
    return k - 1;
  }

  // Uniformly selects an index in [0, n). Requires n > 0.
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Index(i)]);
    }
  }

  // Derives an independent stream. The child seed mixes the parent stream
  // so repeated forks yield distinct generators.
  Rng Fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  // Independent-stream split WITHOUT consuming any parent state: (seed,
  // stream) is mixed through splitmix64 into a child seed, so a consumer
  // holding only the experiment seed can derive its own stream (fault
  // injection uses stream ids) while every other consumer of Rng(seed)
  // — the arrival process, per-iteration sim seeds — replays untouched.
  // Same (seed, stream) => bit-identical child on every platform.
  static Rng Stream(std::uint64_t seed, std::uint64_t stream) {
    return Rng(StreamSeed(seed, stream));
  }

  // The child seed Stream() is built from, for consumers that pass seeds
  // onward instead of holding a generator (a cluster sweep of several
  // fabrics seeds fabric f's iteration i with StreamSeed(seed + i, f)).
  static std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Portable uniform in (0, 1] (the inverse-CDF base draw): mt19937_64
  // output is specified exactly, so the result is bit-identical across
  // standard libraries — use this (not Uniform) where replays must match
  // across platforms, e.g. recovery-backoff jitter.
  double Uniform01() { return Canonical(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  // Uniform draw in (0, 1], 53-bit resolution, straight from the engine
  // (mt19937_64 output is specified exactly, unlike the standard
  // distributions). The +1 excludes 0 so log() is always finite.
  double Canonical() {
    return static_cast<double>((engine_() >> 11) + 1) * 0x1.0p-53;
  }

  std::mt19937_64 engine_;
};

}  // namespace tictac::util
