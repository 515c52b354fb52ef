// Exact percentiles from raw per-operation samples (no histogram buckets).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  /// above it, and its value.
  double tail_q = 0.0;
  double tail = 0.0;
};

/// Linear interpolation between closest ranks over sorted samples; q in
/// [0, 1]. Returns 0 for an empty set.
double percentile(const std::vector<double>& sorted, double q);

/// Sorts `samples` in place and summarizes them.
Summary summarize(std::vector<double>& samples);

/// One operation of a measured window: when it started (seconds into the
/// window) and how long it took.
struct TimedSample {
  double at_s = 0.0;
  double value = 0.0;
};

/// Window statistics robust to a slow stretch of the host: the window is
/// cut into equal time slices (at most `max_slices` but at least one, and
/// few enough that each holds `min_per_slice` samples on average); each
/// slice gets its exact p50, p90 and rate; the medians over slices are
/// reported.
struct Sliced {
  std::size_t slices = 0;
  double rate = 0.0;  ///< samples x `weight` per second
  double p50 = 0.0;
  double p90 = 0.0;
};

Sliced slice_medians(const std::vector<TimedSample>& samples, double window_s,
                     std::size_t max_slices, std::size_t min_per_slice,
                     double weight);

}  // namespace perfbench
