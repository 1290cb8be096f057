// Small statistics and bookkeeping helpers of the benchmark: percentiles,
// the tail-percentile rule, metric-name validation and the results digest.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/rpc/call_stats.h"

namespace perfbench {

// Linear-interpolation quantile (p in [0, 1]) of `values`, which need not be
// sorted. Returns 0 for an empty set.
double Quantile(std::vector<double> values, double p);

// Quantile estimated from a power-of-two CallStats histogram: linear
// interpolation by rank inside the bucket that holds it, clamped to the
// observed min and max (LatencyHistogram::Percentile returns the bucket's
// upper bound instead).
double HistogramQuantile(const itc::rpc::LatencyHistogram& h, double p);

// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
// samples beyond it in a set of `n` samples; nullopt when not even the
// median does (n < 20).
std::optional<double> TailPercentile(uint64_t n);

// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
// or a digit.
bool ValidMetricName(std::string_view name);

// FNV-1a over a canonical stream of simulated results. Two runs with equal
// digests fed the same values in the same order.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(std::string_view s);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
