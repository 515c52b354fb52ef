// Heap-allocation counting for the benchmark binary. The global
// operator new is replaced in alloc_count.cpp, so every allocation in the
// process — library code included — passes through the counters here.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread since it started. Always
/// counted; cheap enough to leave on in timed runs.
std::uint64_t thread_allocs();

/// Allocations made by all threads while counting was on.
std::uint64_t global_allocs();

/// Turns the all-thread counter on or off. Off costs one relaxed load per
/// allocation; on adds one shared atomic increment.
void set_global_counting(bool on);

}  // namespace perfbench
