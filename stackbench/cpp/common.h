// Shared helpers for the repo benchmark: seeded generators, percentile
// math, process CPU/RSS readings, and the outcome types every workload
// reports per operation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stackbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: tiny, seedable, and identical on every platform, so the
// same --seed yields the same op sequence everywhere (std::
// distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Uniform() * static_cast<double>(n));
  }
  // Exponential inter-arrival gap for a Poisson process of `rate`/s, ns.
  double ExpGapNs(double rate) {
    return -std::log(1.0 - Uniform()) / rate * 1e9;
  }

 private:
  std::uint64_t state_;
};

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// How one timed operation ended, judged against the oracle.
enum class Verdict : std::uint8_t {
  kExpected,  // the oracle's outcome (an expected denial is a success)
  kFailed,    // typed system failure: shed, [fleet], unexpected [token-*]
  kMismatch,  // permit where the oracle denies, or the reverse: abort
};

struct OpOutcome {
  Verdict verdict = Verdict::kExpected;
  std::string detail;  // filled only for kMismatch / kFailed
};

// Result of the untimed correctness phase.
struct CorrectnessReport {
  std::size_t tuples = 0;
  std::size_t denials = 0;
  std::uint64_t reason_digest = 0;  // order-independent
  bool ok = true;
  std::string first_bad;  // the first tuple whose outcome broke the oracle
};

// Order-independent digest: a sum of per-string hashes is the same
// whatever order the strings were produced in.
inline void AddToDigest(std::uint64_t* digest, std::string_view text) {
  *digest += Fnv1a(text);
}

}  // namespace stackbench
