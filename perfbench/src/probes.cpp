#include "probes.h"

#include <memory>

#include "alloc_count.h"
#include "paths.h"
#include "samples.h"

namespace perfbench {

namespace {

constexpr double kProbeSeconds = 0.5;
constexpr std::size_t kProbeMaxOps = 2000;
constexpr std::size_t kProbeMinOps = 8;
constexpr std::size_t kProbeTickEvery = 4;
constexpr std::size_t kSelectRepeats = 64;
// A fixed count, so the allocation averages are exact for a given seed.
constexpr std::size_t kAllocOps = 64;

volatile std::size_t g_sink = 0;

/// Calls op(i) for i = 0, 1, ... until `seconds` have passed (at least
/// kProbeMinOps, at most kProbeMaxOps calls). Returns the call count.
template <typename Op>
std::size_t repeat_for(double seconds, Op&& op) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t n = 0;
  while (n < kProbeMaxOps && (n < kProbeMinOps || now_ns() < deadline)) {
    op(n++);
  }
  return n;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

const LayerRow* row(const std::map<std::string, LayerRow>& table,
                    const char* name) {
  const auto it = table.find(name);
  return it == table.end() ? nullptr : &it->second;
}

}  // namespace

fleet::FleetOptions fleet_options(const core::SchedulerOptions& scheduler) {
  fleet::FleetOptions options;
  options.server.scheduler = scheduler;
  return options;
}

void wire_layer_metrics(const std::map<std::string, LayerRow>& table,
                        const serve::ServerMetrics::Snapshot& snapshot,
                        double mean_frame_bytes, std::uint64_t predict_calls,
                        Metrics& out) {
  if (const LayerRow* r = row(table, "serve.encode")) {
    out.fill("serve.encode_us", r->p50_us, "us", r->count);
  }
  if (const LayerRow* r = row(table, "serve.decode")) {
    out.fill("serve.decode_us", r->p50_us, "us", r->count);
  }
  if (const LayerRow* r = row(table, "serve.serve_frame")) {
    out.fill("serve.serve_frame_us", r->p50_us, "us", r->count);
    out.fill("serve.handoff_us", r->self_p50_us, "us", r->count);
  }
  if (mean_frame_bytes > 0.0) {
    out.fill("serve.frame_bytes", mean_frame_bytes, "B");
  }
  out.fill("serve.mean_batch", snapshot.mean_batch, "count");
  out.fill("serve.shed", static_cast<double>(snapshot.shed), "count");
  predict_layer_metrics(table, predict_calls, snapshot.completed, out);
}

void predict_layer_metrics(const std::map<std::string, LayerRow>& table,
                           std::uint64_t predict_calls,
                           std::uint64_t requests_served, Metrics& out) {
  if (const LayerRow* r = row(table, "core.predict")) {
    out.fill("core.predict_us", r->p50_us, "us", r->count);
  }
  out.fill("core.predict_per_request", ratio(predict_calls, requests_served),
           "ratio");
}

void fleet_layer_metrics(const std::map<std::string, LayerRow>& table,
                         const FleetDelta& delta, Metrics& out) {
  const std::uint64_t routed = delta.after.routed - delta.before.routed;
  if (const LayerRow* r = row(table, "fleet.select")) {
    out.fill("fleet.select_us", r->p50_us, "us", r->count);
  }
  if (const LayerRow* r = row(table, "fleet.tick")) {
    out.fill("fleet.tick_us", r->p50_us, "us", r->count);
  }
  out.fill("fleet.replica_calls_per_request",
           ratio(delta.totals_after.calls - delta.totals_before.calls, routed),
           "ratio");
  out.fill("fleet.hedges_per_request",
           ratio(delta.after.hedges_fired - delta.before.hedges_fired, routed),
           "ratio");
  out.fill("fleet.reroutes",
           static_cast<double>(delta.after.rerouted - delta.before.rerouted),
           "count");
  out.fill("fleet.vote_disagreements",
           static_cast<double>(delta.after.vote_disagreements -
                               delta.before.vote_disagreements),
           "count");
}

std::uint64_t fleet_lost(const serve::FleetStats& stats) {
  const std::uint64_t answered = stats.delivered + stats.shed;
  return stats.routed > answered ? stats.routed - answered : 0;
}

std::uint64_t server_lost(const serve::ServerMetrics::Snapshot& snapshot) {
  const std::uint64_t answered = snapshot.completed + snapshot.shed;
  return snapshot.submitted > answered ? snapshot.submitted - answered : 0;
}

std::vector<SpanRecord> probe_wire(const ProbeInputs& in, Metrics& out) {
  serve::ModelRegistry registry;
  const auto tracing = std::make_shared<TracingPredictor>(in.model);
  const std::uint64_t version = registry.publish(tracing);
  serve::Server server{registry, in.server};
  WireClient client;
  spans::set_enabled(true);
  repeat_for(kProbeSeconds, [&](std::size_t i) {
    client.round_trip(server, in.list[i % in.list.size()], version,
                      in.checker, true);
  });
  spans::set_enabled(false);
  const serve::ServerMetrics::Snapshot snapshot = server.metrics_snapshot();
  server.stop();
  in.checker.add_lost(server_lost(snapshot));
  std::vector<SpanRecord> records = spans::drain();
  wire_layer_metrics(layer_table(records), snapshot,
                     mean_frame_bytes(in.list), tracing->calls(), out);
  return records;
}

std::vector<SpanRecord> probe_fleet(const ProbeInputs& in, Metrics& out) {
  fleet::Fleet fleet{fleet_options(in.server.scheduler)};
  const auto tracing = std::make_shared<TracingPredictor>(in.model);
  const std::uint64_t version = fleet.publish(tracing);
  FleetDelta delta;
  delta.before = fleet.stats();
  delta.totals_before = fleet.client_totals();
  spans::set_enabled(true);
  repeat_for(kProbeSeconds, [&](std::size_t i) {
    fleet_select(fleet, in.list[i % in.list.size()], version, in.checker,
                 true);
    if ((i + 1) % kProbeTickEvery == 0) {
      fleet_tick(fleet);
    }
  });
  spans::set_enabled(false);
  delta.after = fleet.stats();
  delta.totals_after = fleet.client_totals();
  fleet.stop();
  in.checker.add_lost(fleet_lost(delta.after));
  std::vector<SpanRecord> records = spans::drain();
  fleet_layer_metrics(layer_table(records), delta, out);
  return records;
}

void probe_allocs(const ProbeInputs& in, Metrics& out) {
  serve::ModelRegistry registry;
  const auto tracing = std::make_shared<TracingPredictor>(in.model);
  const std::uint64_t version = registry.publish(tracing);
  serve::Server server{registry, in.server};
  WireClient client;
  // Warm-up: first-use allocations (buffers, thread-local state) are set
  // up once per process, not per request.
  for (std::size_t i = 0; i < kProbeMinOps; ++i) {
    client.round_trip(server, in.list[i % in.list.size()], version,
                      in.checker, false);
  }
  const std::uint64_t calls_before = tracing->calls();
  const std::uint64_t predict_allocs_before = tracing->allocs();
  set_global_counting(true);
  const std::uint64_t allocs_before = global_allocs();
  for (std::size_t i = 0; i < kAllocOps; ++i) {
    client.round_trip(server, in.list[i % in.list.size()], version,
                      in.checker, false);
  }
  const std::uint64_t allocs = global_allocs() - allocs_before;
  set_global_counting(false);
  const std::uint64_t calls = tracing->calls() - calls_before;
  const std::uint64_t predict_allocs =
      tracing->allocs() - predict_allocs_before;
  in.checker.add_lost(server_lost(server.metrics_snapshot()));
  server.stop();
  out.fill("serve.allocs_per_request", ratio(allocs, kAllocOps), "count",
           kAllocOps);
  out.fill("core.predict_allocs", ratio(predict_allocs, calls), "count",
           calls);
}

void probe_core(const ProbeInputs& in, Metrics& out) {
  std::vector<double> reference_us;
  repeat_for(kProbeSeconds / 2, [&](std::size_t i) {
    const Entry& entry = in.list[i % in.list.size()];
    const std::uint64_t start = now_ns();
    const serve::SelectResponse response =
        serve::serve_with_model(*in.model, entry.reference.model_version,
                                entry.request, in.server.scheduler);
    const std::uint64_t end = now_ns();
    reference_us.push_back(static_cast<double>(end - start) / 1e3);
    in.checker.check(entry, response, entry.reference.model_version);
  });
  std::vector<double> select_us;
  std::size_t sink = 0;
  repeat_for(kProbeSeconds / 2, [&](std::size_t i) {
    const Entry& entry = in.list[i % in.list.size()];
    const core::Prediction prediction = in.model->predict(entry.request.samples);
    const core::Scheduler walker{prediction, in.server.scheduler};
    const std::uint64_t start = now_ns();
    for (std::size_t r = 0; r < kSelectRepeats; ++r) {
      sink += walker.select_goal(entry.request.goal, entry.request.cap_w)
                  .config_index;
    }
    const std::uint64_t end = now_ns();
    select_us.push_back(static_cast<double>(end - start) / 1e3 /
                        static_cast<double>(kSelectRepeats));
  });
  g_sink = sink;  // keeps the timed calls' results observable
  const Summary reference = summarize(reference_us);
  const Summary select = summarize(select_us);
  out.fill("core.reference_us", reference.p50, "us", reference.count);
  out.fill("core.select_us", select.p50, "us", select.count);
}

}  // namespace perfbench
