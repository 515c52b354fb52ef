// Bench-side span recording for the traced run. Spans are kept in memory
// (one buffer per thread) and written out when the run ends. Spans of one
// request share its request id; a span's parent may sit on another thread
// (a server worker's core.predict under the client's serve.serve_frame),
// linked through the obs::TraceContext the server propagates.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::uint32_t thread = 0;
};

/// Nanoseconds on the steady clock since the process started.
std::uint64_t now_ns();

namespace spans {

bool enabled();
void set_enabled(bool on);
std::uint64_t new_id();

/// Appends a finished span to the calling thread's buffer (no-op when
/// recording is off).
void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t id, std::uint64_t parent, std::uint64_t request);

/// Takes every buffered span, leaving the buffers empty. Call while no
/// thread is recording.
std::vector<SpanRecord> drain();

}  // namespace spans

struct LayerRow {
  std::size_t count = 0;
  double p50_us = 0.0;       ///< span duration
  double self_p50_us = 0.0;  ///< duration minus the time children cover
};

/// Per span name: count, p50 duration and p50 self time.
std::map<std::string, LayerRow> layer_table(
    const std::vector<SpanRecord>& records);

void print_layer_table(const std::map<std::string, LayerRow>& table,
                       std::ostream& out);

/// One JSON object per line: a header line, then one line per span.
void write_spans(const std::vector<SpanRecord>& records,
                 const std::string& header_json, std::ostream& out);

}  // namespace perfbench
