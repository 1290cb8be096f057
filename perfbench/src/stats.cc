#include "src/stats.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double HistogramQuantile(const itc::rpc::LatencyHistogram& h, double p) {
  if (h.count() == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(h.count() - 1);
  uint64_t before = 0;
  for (int i = 0; i < itc::rpc::LatencyHistogram::kBuckets; ++i) {
    const uint64_t in = h.buckets()[i];
    if (in == 0 || static_cast<double>(before + in) <= rank) {
      before += in;
      continue;
    }
    // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i - 1].
    const double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
    const double hi = i == 0 ? 0.0 : static_cast<double>((uint64_t{1} << i) - 1);
    const double frac = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(in);
    const double v = lo + (hi - lo) * std::min(1.0, frac);
    return std::clamp(v, static_cast<double>(h.min()), static_cast<double>(h.max()));
  }
  return static_cast<double>(h.max());
}

std::optional<double> TailPercentile(uint64_t n) {
  std::optional<double> best;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    // Samples strictly beyond the p-th quantile: floor(n * (1 - p)), with a
    // small epsilon so 1000 * (1 - 0.99) counts as 10, not 9.999...
    const double beyond = static_cast<double>(n) * (1.0 - p) + 1e-9;
    if (beyond >= 10.0) best = p;
  }
  return best;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::Add(std::string_view s) {
  Add(static_cast<uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
