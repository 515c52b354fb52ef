// Per-layer numbers for the traced run. The workload's own traced phase
// sets the metrics of the layers its path crosses; a probe then times
// each remaining layer with one caller, on the same model, scheduler
// policy and request list, and fills in only metrics still unset. So
// every per-layer metric is measured on every workload.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "metrics.h"
#include "serve/server.h"
#include "spans.h"
#include "world.h"

namespace perfbench {

struct ProbeInputs {
  const std::vector<Entry>& list;
  core::PredictorPtr model;  ///< the trained model, unwrapped
  serve::ServerOptions server;  ///< the workload's server shape and policy
  Checker& checker;
};

/// The fleet shape of the fleet workload: the default 4 shards x 3
/// replicas, inline fan-out, one worker per replica.
fleet::FleetOptions fleet_options(const core::SchedulerOptions& scheduler);

/// Counter deltas of a fleet over one measured stretch.
struct FleetDelta {
  serve::FleetStats before;
  serve::FleetStats after;
  fleet::Fleet::ClientTotals totals_before;
  fleet::Fleet::ClientTotals totals_after;
};

/// serve.* and core.predict metrics of a traced wire stretch.
void wire_layer_metrics(const std::map<std::string, LayerRow>& table,
                        const serve::ServerMetrics::Snapshot& snapshot,
                        double mean_frame_bytes, std::uint64_t predict_calls,
                        Metrics& out);

/// core.predict_us and core.predict_per_request (predict calls ÷
/// requests the servers handled).
void predict_layer_metrics(const std::map<std::string, LayerRow>& table,
                           std::uint64_t predict_calls,
                           std::uint64_t requests_served, Metrics& out);

/// fleet.* metrics of a traced fleet stretch.
void fleet_layer_metrics(const std::map<std::string, LayerRow>& table,
                         const FleetDelta& delta, Metrics& out);

/// Unaccounted requests of a fleet: routed - delivered - shed.
std::uint64_t fleet_lost(const serve::FleetStats& stats);

/// Unaccounted requests of a server: submitted - completed - shed.
std::uint64_t server_lost(const serve::ServerMetrics::Snapshot& snapshot);

// Each probe returns the spans it recorded.
std::vector<SpanRecord> probe_wire(const ProbeInputs& in, Metrics& out);
std::vector<SpanRecord> probe_fleet(const ProbeInputs& in, Metrics& out);

/// serve.allocs_per_request and core.predict_allocs from one caller's
/// sequential round trips, spans off.
void probe_allocs(const ProbeInputs& in, Metrics& out);

/// core.select_us (Scheduler::select_goal on a ready prediction) and
/// core.reference_us (serve::serve_with_model inline).
void probe_core(const ProbeInputs& in, Metrics& out);

}  // namespace perfbench
