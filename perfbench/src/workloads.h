// The four workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced runs write their spans here
};

const std::vector<std::string>& workload_names();

/// Sets up, measures, checks and prints one run; the last line of
/// standard output is the JSON result. Returns the process exit code.
int run_benchmark(const RunOptions& options);

}  // namespace perfbench
