// Named metric values in the order they were first set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 when the value is not a sample statistic
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    const auto it = find(name);
    if (it == metrics_.end()) {
      metrics_.push_back(Metric{name, value, unit, samples});
    } else {
      *it = Metric{name, value, unit, samples};
    }
  }

  /// Sets the metric only if nothing has set it yet.
  void fill(const std::string& name, double value, const std::string& unit,
            std::size_t samples = 0) {
    if (!has(name)) {
      metrics_.push_back(Metric{name, value, unit, samples});
    }
  }

  bool has(const std::string& name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
  }

  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric>::iterator find(const std::string& name) {
    return std::find_if(metrics_.begin(), metrics_.end(),
                        [&](const Metric& m) { return m.name == name; });
  }

  std::vector<Metric> metrics_;
};

}  // namespace perfbench
