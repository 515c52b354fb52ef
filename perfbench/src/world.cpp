#include "world.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>
#include <thread>

#include "alloc_count.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "soc/machine.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

// The simulated machine is fixed, so every run trains the same model; the
// workload seed varies only the requests.
constexpr std::uint64_t kMachineSeed = 90210;
const char* const kHeldOut = "LU";

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

PoolKernel to_pool_kernel(const core::KernelCharacterization& kernel) {
  return PoolKernel{kernel.samples, kernel.powers(), kernel.performances()};
}

// The request mix of the repository's datacenter traffic model (the
// defaults of dc::TrafficOptions): the three goals equally often, four in
// five requests capped, caps from its pool.
const core::SchedulingGoal kGoals[] = {core::SchedulingGoal::MaxPerformance,
                                       core::SchedulingGoal::MinEnergy,
                                       core::SchedulingGoal::MinEnergyDelay};
const double kCapPoolW[] = {22.0, 26.0, 30.0, 40.0};

/// A uniform draw inside the j-th of n equal strata of [0, 1): stratified
/// draws keep the mix of caps, and so the quality metrics, nearly the
/// same from seed to seed.
double stratum(Rng& rng, std::size_t j, std::size_t n) {
  return (static_cast<double>(j) + rng.uniform()) / static_cast<double>(n);
}

/// (kernel, round) pairs: every round visits every kernel once in a fresh
/// seeded order, and no kernel follows itself.
std::vector<std::pair<std::size_t, std::size_t>> interleave(
    Rng& rng, std::size_t kernels, std::size_t rounds) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<std::size_t> perm(kernels);
  for (std::size_t k = 0; k < kernels; ++k) {
    perm[k] = k;
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    rng.shuffle(perm);
    if (!order.empty() && kernels > 1 && perm[0] == order.back().first) {
      std::swap(perm[0], perm[1]);
    }
    for (const std::size_t k : perm) {
      order.emplace_back(k, r);
    }
  }
  return order;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

Trained train_model(ModelKind kind, SetupTimes& times) {
  const auto suite = workloads::Suite::standard();
  std::uint64_t start = now_ns();
  soc::Machine machine{soc::MachineSpec{}, kMachineSeed};
  Trained trained;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark != kHeldOut) {
      trained.training.push_back(
          eval::characterize_instance(machine, instance));
    }
  }
  times.characterize_s = seconds_since(start);

  start = now_ns();
  core::TrainerOptions options;
  options.predictor = kind == ModelKind::Gp
                          ? core::PredictorKind::GaussianProcess
                          : core::PredictorKind::ClusterCart;
  trained.model = core::train_predictor(trained.training, options).predictor;
  times.train_s = seconds_since(start);
  return trained;
}

std::vector<PoolKernel> make_pool(
    const std::vector<core::KernelCharacterization>& training) {
  const auto suite = workloads::Suite::standard();
  soc::Machine machine{soc::MachineSpec{}, kMachineSeed + 1};
  std::vector<PoolKernel> pool;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == kHeldOut) {
      pool.push_back(
          to_pool_kernel(eval::characterize_instance(machine, instance)));
    }
  }
  for (std::size_t i = 0; i < training.size(); i += 8) {
    pool.push_back(to_pool_kernel(training[i]));
  }
  return pool;
}

std::vector<PoolKernel> widen_pool(const std::vector<PoolKernel>& pool,
                                   std::size_t count) {
  std::vector<PoolKernel> wide;
  wide.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    PoolKernel variant = pool[k % pool.size()];
    variant.samples.cpu.input += "-v" + std::to_string(k);
    variant.samples.gpu.input += "-v" + std::to_string(k);
    wide.push_back(std::move(variant));
  }
  return wide;
}

std::vector<Entry> make_mixed_list(const std::vector<PoolKernel>& pool,
                                   std::uint64_t seed, std::size_t rounds) {
  if (rounds % kMixPeriod != 0) {
    throw std::invalid_argument("perfbench: rounds must be a multiple of " +
                                std::to_string(kMixPeriod));
  }
  Rng rng{Rng::mix_seeds(seed, 0x5e1ec7)};
  struct Slot {
    core::SchedulingGoal goal;
    std::optional<double> cap_w;
  };
  // Slot j: goal j % 3; of every five slots of a goal, one uncapped and
  // one at each pool cap.
  std::vector<std::vector<Slot>> slots(pool.size());
  for (std::size_t k = 0; k < pool.size(); ++k) {
    for (std::size_t j = 0; j < rounds; ++j) {
      Slot slot{kGoals[j % 3], std::nullopt};
      if (const std::size_t c = j / 3 % 5; c < std::size(kCapPoolW)) {
        slot.cap_w = kCapPoolW[c];
      }
      slots[k].push_back(slot);
    }
    rng.shuffle(slots[k]);
  }
  std::vector<Entry> list;
  for (const auto& [k, r] : interleave(rng, pool.size(), rounds)) {
    Entry entry;
    entry.kernel = k;
    entry.request.request_id = list.size() + 1;
    entry.request.samples = pool[k].samples;
    entry.request.goal = slots[k][r].goal;
    entry.request.cap_w = slots[k][r].cap_w;
    list.push_back(std::move(entry));
  }
  return list;
}

std::vector<Entry> make_burst_list(const std::vector<PoolKernel>& pool,
                                   std::uint64_t seed, std::size_t rounds,
                                   std::size_t burst_size) {
  Rng rng{Rng::mix_seeds(seed, 0xb0257)};
  const double lo = kCapPoolW[0];
  const double hi = kCapPoolW[std::size(kCapPoolW) - 1];
  std::vector<std::vector<double>> starts(pool.size());
  for (std::size_t k = 0; k < pool.size(); ++k) {
    for (std::size_t j = 0; j < rounds; ++j) {
      starts[k].push_back(lo + 0.5 * (hi - lo) * stratum(rng, j, rounds));
    }
    rng.shuffle(starts[k]);
  }
  std::vector<Entry> list;
  for (const auto& [k, r] : interleave(rng, pool.size(), rounds)) {
    const double start = starts[k][r];
    for (std::size_t i = 0; i < burst_size; ++i) {
      const double step = static_cast<double>(i) /
                          static_cast<double>(std::max<std::size_t>(
                              burst_size - 1, 1));
      Entry entry;
      entry.kernel = k;
      entry.request.request_id = list.size() + 1;
      entry.request.samples = pool[k].samples;
      entry.request.goal = core::SchedulingGoal::MaxPerformance;
      entry.request.cap_w = start + (hi - start) * step;
      list.push_back(std::move(entry));
    }
  }
  return list;
}

void compute_references(std::vector<Entry>& list,
                        const core::Predictor& model, std::uint64_t version,
                        const core::SchedulerOptions& scheduler) {
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < list.size(); i += threads) {
        list[i].reference = serve::serve_with_model(model, version,
                                                    list[i].request,
                                                    scheduler);
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
}

Quality score(const std::vector<Entry>& list,
              const std::vector<PoolKernel>& pool) {
  Quality q;
  double ratio_sum = 0.0;
  std::size_t met = 0;
  for (const Entry& entry : list) {
    if (!entry.request.cap_w.has_value()) {
      continue;
    }
    const double cap = *entry.request.cap_w;
    const PoolKernel& kernel = pool[entry.kernel];
    const std::size_t chosen = entry.reference.config_index;
    ++q.capped_requests;
    if (kernel.power_w[chosen] <= cap) {
      ++met;
    }
    if (entry.request.goal != core::SchedulingGoal::MaxPerformance) {
      continue;
    }
    double oracle = 0.0;
    for (std::size_t c = 0; c < kernel.power_w.size(); ++c) {
      if (kernel.power_w[c] <= cap) {
        oracle = std::max(oracle, kernel.performance[c]);
      }
    }
    if (oracle > 0.0) {
      ratio_sum += kernel.performance[chosen] / oracle;
      ++q.perf_requests;
    }
  }
  if (q.perf_requests > 0) {
    q.perf_vs_oracle = ratio_sum / static_cast<double>(q.perf_requests);
  }
  if (q.capped_requests > 0) {
    q.cap_met_frac =
        static_cast<double>(met) / static_cast<double>(q.capped_requests);
  }
  return q;
}

void Checker::check(const Entry& entry, const serve::SelectResponse& response,
                    std::uint64_t expected_version) {
  ++attempted_;
  if (response.status != serve::ResponseStatus::Ok) {
    ++not_ok_;
    return;
  }
  const serve::SelectResponse& ref = entry.reference;
  const bool same = response.request_id == entry.request.request_id &&
                    response.model_version == expected_version &&
                    response.config_index == ref.config_index &&
                    same_bits(response.predicted_power_w,
                              ref.predicted_power_w) &&
                    same_bits(response.predicted_performance,
                              ref.predicted_performance) &&
                    response.predicted_feasible == ref.predicted_feasible;
  if (!same && mismatched_++ == 0) {
    std::fprintf(stderr,
                 "perfbench: first mismatch, request %llu: got version %llu "
                 "config %u power %.17g perf %.17g feasible %d; want version "
                 "%llu config %u power %.17g perf %.17g feasible %d\n",
                 static_cast<unsigned long long>(response.request_id),
                 static_cast<unsigned long long>(response.model_version),
                 response.config_index, response.predicted_power_w,
                 response.predicted_performance,
                 response.predicted_feasible ? 1 : 0,
                 static_cast<unsigned long long>(expected_version),
                 ref.config_index, ref.predicted_power_w,
                 ref.predicted_performance, ref.predicted_feasible ? 1 : 0);
  }
}

core::Prediction TracingPredictor::predict(
    const core::SamplePair& samples) const {
  const obs::TraceContext& context = obs::current_trace_context();
  const std::uint64_t allocs_before = thread_allocs();
  const std::uint64_t start = now_ns();
  core::Prediction prediction = inner_->predict(samples);
  const std::uint64_t end = now_ns();
  allocs_ += thread_allocs() - allocs_before;
  ++calls_;
  if (context.active()) {  // only requests the caller traces
    spans::record("core.predict", start, end, spans::new_id(),
                  context.span_id, context.trace_id);
  }
  return prediction;
}

}  // namespace perfbench
