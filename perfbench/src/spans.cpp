#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "samples.h"
#include "stats/summary.h"

namespace perfbench {

namespace {

struct Buffer {
  std::mutex mu;  // uncontended: only its own thread records into it
  std::vector<SpanRecord> records;
  std::uint32_t thread = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // g_buffers_mu

Buffer& this_thread_buffer() {
  // Buffers outlive their threads: a worker that exits before drain()
  // leaves its spans behind, owned by g_buffers.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->records.reserve(1 << 14);
    std::lock_guard<std::mutex> lock{g_buffers_mu};
    owned->thread = static_cast<std::uint32_t>(g_buffers.size());
    buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

namespace spans {

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t new_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t id, std::uint64_t parent, std::uint64_t request) {
  if (!enabled()) {
    return;
  }
  Buffer& buffer = this_thread_buffer();
  std::lock_guard<std::mutex> lock{buffer.mu};
  buffer.records.push_back(
      SpanRecord{name, start_ns, end_ns, id, parent, request, buffer.thread});
}

std::vector<SpanRecord> drain() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock{g_buffers_mu};
  for (const auto& buffer : g_buffers) {
    std::lock_guard<std::mutex> buffer_lock{buffer->mu};
    out.insert(out.end(), buffer->records.begin(), buffer->records.end());
    buffer->records.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

}  // namespace spans

std::map<std::string, LayerRow> layer_table(
    const std::vector<SpanRecord>& records) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& r : records) {
    if (r.parent != 0) {
      children[r.parent].push_back(&r);
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (const SpanRecord& r : records) {
    const std::uint64_t dur = r.end_ns - r.start_ns;
    covered.clear();
    if (const auto it = children.find(r.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, r.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, r.end_ns);
        if (hi > lo) {
          covered.emplace_back(lo, hi);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t child_ns = 0;
    std::uint64_t reach = 0;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        child_ns += hi - from;
      }
      reach = std::max(reach, hi);
    }
    auto& [durs, selfs] = by_name[r.name];
    durs.push_back(static_cast<double>(dur) / 1e3);
    selfs.push_back(static_cast<double>(dur - std::min(dur, child_ns)) / 1e3);
  }
  std::map<std::string, LayerRow> table;
  for (auto& [name, pair] : by_name) {
    LayerRow row;
    row.count = pair.first.size();
    row.p50_us = acsel::stats::median(pair.first);
    row.self_p50_us = acsel::stats::median(pair.second);
    table.emplace(name, row);
  }
  return table;
}

void print_layer_table(const std::map<std::string, LayerRow>& table,
                       std::ostream& out) {
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %10s %14s %14s\n", "span", "count",
                "p50 us", "self p50 us");
  out << line;
  for (const auto& [name, row] : table) {
    std::snprintf(line, sizeof line, "%-24s %10zu %14.3f %14.3f\n",
                  name.c_str(), row.count, row.p50_us, row.self_p50_us);
    out << line;
  }
}

void write_spans(const std::vector<SpanRecord>& records,
                 const std::string& header_json, std::ostream& out) {
  out << header_json << '\n';
  for (const SpanRecord& r : records) {
    out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"request\":" << r.request
        << ",\"thread\":" << r.thread << "}\n";
  }
}

}  // namespace perfbench
