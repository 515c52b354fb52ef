#include "samples.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"

namespace perfbench {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p50 = percentile(samples, 0.50);
  s.p90 = percentile(samples, 0.90);
  s.p99 = percentile(samples, 0.99);
  s.tail_q = 0.50;
  for (const double q : {0.90, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(s.count) * (1.0 - q) >= 10.0) {
      s.tail_q = q;
    }
  }
  s.tail = percentile(samples, s.tail_q);
  return s;
}

Sliced slice_medians(const std::vector<TimedSample>& samples, double window_s,
                     std::size_t max_slices, std::size_t min_per_slice,
                     double weight) {
  Sliced out;
  out.slices = std::clamp<std::size_t>(samples.size() / min_per_slice, 1,
                                       std::max<std::size_t>(max_slices, 1));
  const double slice_s = window_s / static_cast<double>(out.slices);
  std::vector<std::vector<double>> values(out.slices);
  for (const TimedSample& s : samples) {
    const auto i = static_cast<std::size_t>(std::max(0.0, s.at_s / slice_s));
    values[std::min(i, out.slices - 1)].push_back(s.value);
  }
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (std::vector<double>& slice : values) {
    std::sort(slice.begin(), slice.end());
    rates.push_back(static_cast<double>(slice.size()) * weight / slice_s);
    p50s.push_back(percentile(slice, 0.50));
    p90s.push_back(percentile(slice, 0.90));
  }
  out.rate = acsel::stats::median(rates);
  out.p50 = acsel::stats::median(p50s);
  out.p90 = acsel::stats::median(p90s);
  return out;
}

}  // namespace perfbench
