#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "fleet/fleet.h"
#include "metrics.h"
#include "paths.h"
#include "probes.h"
#include "samples.h"
#include "serve/server.h"
#include "spans.h"
#include "stats/summary.h"
#include "world.h"

namespace perfbench {

namespace {

enum class Path { Wire, Burst, Fleet };

struct Workload {
  std::string name;
  ModelKind model;
  Path path;
  std::size_t threads;  ///< closed-loop callers
  serve::ServerOptions server;  ///< scheduler policy; shape of Wire/Burst
};

serve::ServerOptions two_workers(core::SelectionPolicy policy) {
  serve::ServerOptions options;
  options.workers = 2;
  options.scheduler.policy = policy;
  return options;
}

// Why each workload exists is in README.md next to this directory.
// The whole process runs on one CPU (see pin_to_one_cpu), where a second
// caller adds no parallelism, only a choice of which runnable thread goes
// next. select-gp and fleet-tmr have one caller: with two, two GP
// predicts time-sliced each other and rtt_p90_us spread by 10% of the
// median over ten runs of the same code, and fleet-tmr's 14 threads moved
// its throughput by 15%.
const std::vector<Workload>& workloads() {
  const auto point = core::SelectionPolicy::point_estimate();
  static const std::vector<Workload> all = {
      {"select-cart", ModelKind::Cart, Path::Wire, 2, two_workers(point)},
      {"select-gp", ModelKind::Gp, Path::Wire, 1,
       two_workers(core::SelectionPolicy::upper_confidence(0.5))},
      {"cap-burst", ModelKind::Cart, Path::Burst, 1, two_workers(point)},
      {"fleet-tmr", ModelKind::Cart, Path::Fleet, 1, two_workers(point)},
  };
  return all;
}

// Set-up repeats in blocks: one before the timed window and one after
// each kPartSeconds part of it. A shared host's speed drifts over seconds
// (on a 4-vCPU VM a characterize loop ran in stretches of ~32 and of
// ~44 ms each), so repetitions spread over the whole run give a steadier
// median. Each block repeats at least kMinSetupReps times and until
// kSetupBlockSeconds have passed, at most kMaxSetupReps times.
constexpr std::size_t kMinSetupReps = 2;
constexpr std::size_t kMaxSetupReps = 10;
constexpr double kSetupBlockSeconds = 0.3;
constexpr double kPartSeconds = 2.0;
// Requests per pool kernel, multiples of kMixPeriod.
constexpr std::size_t kRounds = 420;
// GP references cost ~11 ms each to compute, so its list is shorter.
constexpr std::size_t kGpRounds = 45;
// The widened fleet pool has 192 kernels.
constexpr std::size_t kFleetRounds = 30;
constexpr std::size_t kBurstRounds = 24;
constexpr std::size_t kBurstSize = 32;
constexpr std::size_t kFleetKernels = 192;
constexpr std::uint64_t kTickEvery = 64;
constexpr double kWarmupSeconds = 1.0;
// Before each later part, after the set-up block.
constexpr double kRewarmSeconds = 0.2;
// Window statistics are medians over one-second slices (fewer when the
// window has under 200 operations per second, so p90 keeps 20 samples
// beyond it); a few seconds of host contention move no median.
// The gated tail is p90: on a shared host, slow vCPU wake-ups hit about
// 1% of handoffs in some periods and not in others, and a worker that
// batches both callers' GP requests doubles ~1% of them, so p99 jumps
// from run to run (select-cart: ~60 to ~450 us). The report prints p99.
constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kMinSamplesPerSlice = 200;
constexpr double kTracedWarmupSeconds = 0.25;
// Spans are kept for this many operations of the traced phase.
constexpr std::uint64_t kMaxTracedOps = 20000;

/// The system under test: a registry and server, or a fleet.
struct Service {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<fleet::Fleet> fleet;

  std::uint64_t publish(const core::PredictorPtr& model) {
    return fleet ? fleet->publish(model) : registry->publish(model);
  }

  /// Tears down in dependency order: the server before its registry.
  void reset() {
    server.reset();
    registry.reset();
    fleet.reset();
  }
};

Service build_service(const Workload& w, const core::PredictorPtr& model,
                      std::uint64_t& version) {
  Service service;
  if (w.path == Path::Fleet) {
    service.fleet = std::make_unique<fleet::Fleet>(fleet_options(w.server.scheduler));
  } else {
    service.registry = std::make_unique<serve::ModelRegistry>();
    service.server = std::make_unique<serve::Server>(
        *service.registry, w.server);
  }
  version = service.publish(model);
  return service;
}

struct Phase {
  std::vector<TimedSample> rtt_us;  ///< operations wholly inside the window
  double window_s = 0.0;
};

/// Runs `threads` closed-loop callers, each calling op(thread, i) back to
/// back; op returns its own duration in ns. Samples operations that start
/// and end inside a `window_s` window opened after `warmup_s`.
template <typename Op>
Phase drive(std::size_t threads, double warmup_s, double window_s, Op&& op) {
  struct Sample {
    std::uint64_t begin;
    std::uint64_t finish;
    std::uint64_t rtt;
  };
  std::atomic<std::uint64_t> window_start{
      std::numeric_limits<std::uint64_t>::max()};
  std::atomic<bool> stop{false};
  std::vector<std::vector<Sample>> samples(threads);
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      try {
        std::vector<Sample>& mine = samples[t];
        mine.reserve(1 << 16);
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed);
             ++i) {
          const std::uint64_t begin = now_ns();
          const std::uint64_t rtt = op(t, i);
          const std::uint64_t finish = now_ns();
          if (begin >= window_start.load(std::memory_order_relaxed)) {
            mine.push_back(Sample{begin, finish, rtt});
          }
        }
      } catch (...) {
        errors[t] = std::current_exception();
        stop.store(true);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const std::uint64_t start = now_ns();
  window_start.store(start);
  std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  const std::uint64_t end = now_ns();
  stop.store(true);
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  Phase phase;
  phase.window_s = static_cast<double>(end - start) / 1e9;
  for (const auto& mine : samples) {
    for (const Sample& s : mine) {
      if (s.finish <= end) {
        phase.rtt_us.push_back(
            TimedSample{static_cast<double>(s.begin - start) / 1e9,
                        static_cast<double>(s.rtt) / 1e3});
      }
    }
  }
  return phase;
}

/// One measured phase of the workload's path against `service`.
Phase run_path(const Workload& w, Service& service,
               const std::vector<Entry>& list, std::uint64_t version,
               Checker& checker, double warmup_s, double window_s,
               bool traced) {
  std::atomic<std::uint64_t> traced_ops{0};
  const auto trace_this = [&] {
    return traced && traced_ops.fetch_add(1, std::memory_order_relaxed) <
                         kMaxTracedOps;
  };
  // Callers start at spread-out points of the list, so they do not send
  // the same kernel at the same time.
  const auto offset = [&](std::size_t t, std::size_t units) {
    return t * units / w.threads;
  };
  switch (w.path) {
    case Path::Wire: {
      std::vector<WireClient> clients(w.threads);
      return drive(w.threads, warmup_s, window_s,
                   [&](std::size_t t, std::uint64_t i) {
                     const Entry& entry =
                         list[(offset(t, list.size()) + i) % list.size()];
                     return clients[t].round_trip(*service.server, entry,
                                                  version, checker,
                                                  trace_this());
                   });
    }
    case Path::Burst: {
      const std::size_t bursts = list.size() / kBurstSize;
      std::vector<std::vector<std::future<serve::SelectResponse>>> futures(
          w.threads);
      return drive(w.threads, warmup_s, window_s,
                   [&](std::size_t t, std::uint64_t i) {
                     const std::size_t b = (offset(t, bursts) + i) % bursts;
                     const std::span<const Entry> burst{
                         list.data() + b * kBurstSize, kBurstSize};
                     return run_burst(*service.server, burst, version,
                                      checker, trace_this(), futures[t]);
                   });
    }
    case Path::Fleet: {
      std::atomic<std::uint64_t> requests{0};
      std::mutex tick_mu;  // tick() runs on one thread at a time
      return drive(w.threads, warmup_s, window_s,
                   [&](std::size_t t, std::uint64_t i) {
                     const Entry& entry =
                         list[(offset(t, list.size()) + i) % list.size()];
                     const std::uint64_t rtt =
                         fleet_select(*service.fleet, entry, version, checker,
                                      trace_this());
                     if ((requests.fetch_add(1) + 1) % kTickEvery == 0) {
                       const std::lock_guard<std::mutex> lock{tick_mu};
                       fleet_tick(*service.fleet);
                     }
                     return rtt;
                   });
    }
  }
  return {};
}

const char* root_span(Path path) {
  switch (path) {
    case Path::Wire:
      return "client.request";
    case Path::Burst:
      return "client.burst";
    case Path::Fleet:
      return "fleet.select";
  }
  return "";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

/// Moves the process onto one CPU, the highest-numbered one it may use;
/// every thread started later, the libraries' workers too, inherits it.
/// Returns the CPU, or -1 if the process stays where it was.
///
/// On a shared VM, waking a thread on another vCPU waits for the host to
/// run that vCPU, and how long that takes depends on the host's other
/// tenants: unpinned, select-cart ran at ~13k selections/s in one
/// period and ~65k in another, with the process itself unchanged. On one
/// CPU every handoff is a local context switch, so the benchmark measures
/// the service's own work per selection.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

std::string host_json(int cpu) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"pinned_cpu\": " << cpu << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

void print_metrics(const Metrics& metrics) {
  std::printf("%-34s %18s %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics.all()) {
    std::printf("%-34s %18.6f %-6s %10s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.samples > 0 ? std::to_string(m.samples).c_str() : "-");
  }
}

/// The kept result of the repeated set-up, with every repetition's times.
struct Setup {
  Trained trained;
  Service service;
  std::uint64_t version = 0;
  std::vector<SetupTimes> reps;
  std::string first_model;  ///< serialized by the first repetition
  bool deterministic = true;  ///< every repetition serialized the same model
};

/// One block of set-up repetitions: characterize + train + publish +
/// construct, at least kMinSetupReps times and until kSetupBlockSeconds
/// have passed. Appends their times to setup.reps. With `keep`, the last
/// repetition becomes the service under test; otherwise each repetition
/// is torn down and the service under test stays.
void set_up(const Workload& w, Setup& setup, bool keep) {
  const std::uint64_t start = now_ns();
  for (std::size_t rep = 0;
       rep < kMinSetupReps ||
       (rep < kMaxSetupReps &&
        static_cast<double>(now_ns() - start) / 1e9 < kSetupBlockSeconds);
       ++rep) {
    SetupTimes times;
    Trained trained = train_model(w.model, times);
    const std::uint64_t publish_start = now_ns();
    std::uint64_t version = 0;
    Service service = build_service(w, trained.model, version);
    times.publish_s = static_cast<double>(now_ns() - publish_start) / 1e9;
    setup.reps.push_back(times);
    // Untimed from here on.
    const std::string serialized = trained.model->serialize();
    if (setup.first_model.empty()) {
      setup.first_model = serialized;
    } else if (serialized != setup.first_model) {
      setup.deterministic = false;
    }
    if (keep) {
      setup.service.reset();
      setup.service = std::move(service);
      setup.trained = std::move(trained);
      setup.version = version;
    } else {
      service.reset();
    }
  }
}

double median_of(const std::vector<SetupTimes>& reps,
                 double (*field)(const SetupTimes&)) {
  std::vector<double> values;
  for (const SetupTimes& times : reps) {
    values.push_back(field(times));
  }
  return stats::median(values);
}

/// The traced run after the untraced window: the workload's path again
/// with spans and a forwarding predictor, then probes for the layers the
/// path does not cross. Appends every span recorded to `records`.
Metrics traced_layers(const Workload& w, Setup& setup,
                      const std::vector<Entry>& list, Checker& checker,
                      double seconds, double untraced_p50_us,
                      std::vector<SpanRecord>& records) {
  Metrics layers;
  Service& service = setup.service;
  const auto tracing = std::make_shared<TracingPredictor>(setup.trained.model);
  const std::uint64_t traced_version = service.publish(tracing);
  FleetDelta delta;
  if (service.server) {
    service.server->reset_metrics();
  } else {
    delta.before = service.fleet->stats();
    delta.totals_before = service.fleet->client_totals();
  }
  spans::set_enabled(true);
  run_path(w, service, list, traced_version, checker, kTracedWarmupSeconds,
           seconds, true);
  spans::set_enabled(false);
  records = spans::drain();
  const auto table = layer_table(records);
  if (service.server) {
    const auto snapshot = service.server->metrics_snapshot();
    checker.add_lost(server_lost(snapshot));
    // Bursts are submitted in-process, without frames: the wire probe
    // below times the codec and serve_frame for them.
    wire_layer_metrics(table, snapshot,
                       w.path == Path::Wire ? mean_frame_bytes(list) : 0.0,
                       tracing->calls(), layers);
  } else {
    delta.after = service.fleet->stats();
    delta.totals_after = service.fleet->client_totals();
    fleet_layer_metrics(table, delta, layers);
    predict_layer_metrics(
        table, tracing->calls(),
        delta.totals_after.calls - delta.totals_before.calls, layers);
  }
  if (const auto it = table.find(root_span(w.path)); it != table.end()) {
    layers.set("obs.trace_overhead_frac",
               it->second.p50_us / untraced_p50_us - 1.0, "frac",
               it->second.count);
  }
  std::printf("\nper-layer spans of the traced %s phase:\n", w.name.c_str());
  print_layer_table(table, std::cout);

  const ProbeInputs in{list, setup.trained.model, w.server, checker};
  const auto keep = [&](const std::vector<SpanRecord>& more) {
    records.insert(records.end(), more.begin(), more.end());
  };
  if (!layers.has("serve.encode_us")) {
    keep(probe_wire(in, layers));
  }
  if (!layers.has("fleet.select_us")) {
    keep(probe_fleet(in, layers));
  }
  probe_allocs(in, layers);
  probe_core(in, layers);
  return layers;
}

/// The last line of standard output.
std::string result_json(bool correct, const Checker& checker,
                        const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    json += first ? "" : ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  return json + "}}";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : workloads()) {
      out.push_back(w.name);
    }
    return out;
  }();
  return names;
}

int run_benchmark(const RunOptions& options) {
  const auto found =
      std::find_if(workloads().begin(), workloads().end(),
                   [&](const Workload& w) { return w.name == options.workload; });
  if (found == workloads().end()) {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  const Workload& w = *found;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  const int cpu = pin_to_one_cpu();
  std::printf("host: %s\n", host_json(cpu).c_str());

  Setup setup;
  set_up(w, setup, true);

  // -- inputs from the seed, with reference answers and ground truth ------
  std::vector<PoolKernel> pool = make_pool(setup.trained.training);
  if (w.path == Path::Fleet) {
    pool = widen_pool(pool, kFleetKernels);
  }
  std::vector<Entry> list =
      w.path == Path::Burst
          ? make_burst_list(pool, options.seed, kBurstRounds, kBurstSize)
          : make_mixed_list(pool, options.seed,
                            w.path == Path::Fleet       ? kFleetRounds
                            : w.model == ModelKind::Gp ? kGpRounds
                                                       : kRounds);
  compute_references(list, *setup.trained.model, setup.version,
                     w.server.scheduler);
  const Quality quality = score(list, pool);
  std::printf(
      "model: %s, %zu training kernels, pool %zu kernels, %zu requests\n",
      std::string(setup.trained.model->kind()).c_str(),
      setup.trained.training.size(), pool.size(), list.size());

  // -- end-to-end window, tracing off -------------------------------------
  Checker checker;
  const double window_s = options.trace ? options.seconds / 2 : options.seconds;
  // The window runs in parts with a set-up block after each; the parts'
  // samples are laid end to end.
  const auto parts = static_cast<std::size_t>(
      std::max(1.0, std::round(window_s / kPartSeconds)));
  Phase phase;
  for (std::size_t p = 0; p < parts; ++p) {
    const Phase part =
        run_path(w, setup.service, list, setup.version, checker,
                 p == 0 ? kWarmupSeconds : kRewarmSeconds,
                 window_s / static_cast<double>(parts), false);
    for (TimedSample sample : part.rtt_us) {
      sample.at_s += phase.window_s;
      phase.rtt_us.push_back(sample);
    }
    phase.window_s += part.window_s;
    set_up(w, setup, false);
  }
  if (setup.service.server) {
    checker.add_lost(server_lost(setup.service.server->metrics_snapshot()));
  }
  const std::size_t per_op = w.path == Path::Burst ? kBurstSize : 1;
  std::vector<double> rtt_values;
  for (const TimedSample& sample : phase.rtt_us) {
    rtt_values.push_back(sample.value);
  }
  const Summary rtt = summarize(rtt_values);
  const Sliced sliced =
      slice_medians(phase.rtt_us, phase.window_s,
                    static_cast<std::size_t>(phase.window_s / kSliceSeconds),
                    kMinSamplesPerSlice, static_cast<double>(per_op));

  Metrics layers;
  std::vector<SpanRecord> records;
  if (options.trace) {
    layers = traced_layers(w, setup, list, checker, options.seconds / 2,
                           rtt.p50, records);
  }
  if (setup.service.fleet) {
    checker.add_lost(fleet_lost(setup.service.fleet->stats()));
  }
  setup.service.reset();
  if (options.trace) {
    const std::size_t reps = setup.reps.size();
    layers.set("setup.characterize_s",
               median_of(setup.reps,
                         [](const SetupTimes& t) { return t.characterize_s; }),
               "s", reps);
    layers.set("setup.train_s",
               median_of(setup.reps,
                         [](const SetupTimes& t) { return t.train_s; }),
               "s", reps);
    layers.set("setup.publish_s",
               median_of(setup.reps,
                         [](const SetupTimes& t) { return t.publish_s; }),
               "s", reps);
  }

  Metrics e2e;
  e2e.set("setup_s",
          median_of(setup.reps, [](const SetupTimes& t) { return t.total_s(); }),
          "s", setup.reps.size());
  e2e.set("throughput_sel_s", sliced.rate, "1/s", rtt.count * per_op);
  e2e.set("rtt_p50_us", sliced.p50, "us", rtt.count);
  e2e.set("rtt_p90_us", sliced.p90, "us", rtt.count);
  e2e.set("ok_frac",
          checker.attempted() == 0
              ? 0.0
              : 1.0 - static_cast<double>(checker.failed()) /
                          static_cast<double>(checker.attempted()),
          "frac", checker.attempted());
  e2e.set("perf_vs_oracle", quality.perf_vs_oracle, "ratio",
          quality.perf_requests);
  e2e.set("cap_met_frac", quality.cap_met_frac, "frac",
          quality.capped_requests);

  const Metrics& reported = options.trace ? layers : e2e;
  bool correct = setup.deterministic && checker.attempted() > 0 &&
                 checker.mismatched() == 0 && checker.lost() == 0 &&
                 quality.capped_requests > 0 && rtt.count > 0;
  for (const Metric& m : reported.all()) {
    correct = correct && std::isfinite(m.value);
  }

  std::printf("\nchecks: attempted %llu, not ok %llu, mismatched %llu, "
              "lost %llu, model deterministic across set-ups: %s\n",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.not_ok()),
              static_cast<unsigned long long>(checker.mismatched()),
              static_cast<unsigned long long>(checker.lost()),
              setup.deterministic ? "yes" : "NO");
  std::printf("operations: %zu in %.3f s, %zu slices; whole window p50 "
              "%.3f us, p90 %.3f us, p99 %.3f us; highest percentile with "
              "10 samples beyond: p%g = %.3f us\n\n",
              rtt.count, phase.window_s, sliced.slices, rtt.p50, rtt.p90,
              rtt.p99, rtt.tail_q * 100, rtt.tail);
  print_metrics(e2e);
  if (options.trace) {
    std::printf("\n");
    print_metrics(layers);
    if (!options.spans_path.empty()) {
      std::ofstream out{options.spans_path};
      write_spans(records,
                  "{\"workload\": " + json_string(w.name) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"host\": " + host_json(cpu) + "}",
                  out);
      std::printf("spans: %zu written to %s\n", records.size(),
                  options.spans_path.c_str());
    }
  }
  std::printf("%s\n", result_json(correct, checker, reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
