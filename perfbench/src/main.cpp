// perfbench: the selection service's benchmark. See README.md beside
// this directory for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "util/log.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, number) &&
               number >= 1 && number <= 120) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }
  // Library notices (server start-up lines) would interleave with the
  // report; warnings and errors still show.
  acsel::set_log_level(acsel::LogLevel::Warn);
  try {
    return perfbench::run_benchmark(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
