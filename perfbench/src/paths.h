// One operation on each path the benchmark drives, timed from the
// caller's side. With `traced` set, each operation also records its
// spans: a root span per operation and one child per layer call.
#pragma once

#include <cstdint>
#include <future>
#include <span>
#include <vector>

#include "fleet/fleet.h"
#include "serve/server.h"
#include "world.h"

namespace perfbench {

/// A closed-loop wire client: encode_request -> Server::serve_frame ->
/// decode_frame, blocking on the reply. Keeps its frame buffer across
/// calls.
class WireClient {
 public:
  /// Returns the round trip in nanoseconds.
  std::uint64_t round_trip(serve::Server& server, const Entry& entry,
                           std::uint64_t version, Checker& checker,
                           bool traced);

 private:
  std::vector<std::uint8_t> frame_;
};

/// Submits every request of `burst` to the server, then waits for all of
/// them. Returns the burst's duration in nanoseconds.
std::uint64_t run_burst(serve::Server& server, std::span<const Entry> burst,
                        std::uint64_t version, Checker& checker, bool traced,
                        std::vector<std::future<serve::SelectResponse>>& futures);

/// Mean wire size of the list's request frames.
double mean_frame_bytes(const std::vector<Entry>& list);

/// One Fleet::select call. Returns its duration in nanoseconds.
std::uint64_t fleet_select(fleet::Fleet& fleet, const Entry& entry,
                           std::uint64_t version, Checker& checker,
                           bool traced);

/// One Fleet::tick call. Returns its duration in nanoseconds.
std::uint64_t fleet_tick(fleet::Fleet& fleet);

}  // namespace perfbench
