// What every workload shares: training the model, the request pool with
// its measured ground truth, the seeded request lists with their
// reference answers, the correctness checker, output quality, and the
// forwarding predictor the traced run publishes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/characterization.h"
#include "core/predictor.h"
#include "core/scheduler.h"
#include "serve/message.h"

namespace perfbench {

using namespace acsel;

enum class ModelKind { Cart, Gp };

struct SetupTimes {
  double characterize_s = 0.0;
  double train_s = 0.0;
  double publish_s = 0.0;  ///< publish + server or fleet construction

  double total_s() const { return characterize_s + train_s + publish_s; }
};

/// Characterizes the training benchmarks on a fresh machine and trains the
/// model on them, timing both steps into `times`.
struct Trained {
  core::PredictorPtr model;
  std::vector<core::KernelCharacterization> training;
};
Trained train_model(ModelKind kind, SetupTimes& times);

/// A kernel requests can carry: its two sample runs, plus the measured
/// power and performance of every configuration (the ground truth the
/// quality metrics score against).
struct PoolKernel {
  core::SamplePair samples;
  std::vector<double> power_w;
  std::vector<double> performance;
};

/// The held-out benchmark's kernels (characterized here) plus every
/// eighth training kernel.
std::vector<PoolKernel> make_pool(
    const std::vector<core::KernelCharacterization>& training);

/// `count` distinct kernel identities cycling over `pool`: the same
/// measurements under new input names, so a consistent-hash router has
/// enough keys to balance.
std::vector<PoolKernel> widen_pool(const std::vector<PoolKernel>& pool,
                                   std::size_t count);

/// One request of a workload and the answer the server must give.
struct Entry {
  serve::SelectRequest request;
  std::size_t kernel = 0;  ///< index into the pool
  serve::SelectResponse reference;
};

/// `rounds` requests per pool kernel, interleaved so consecutive requests
/// go to distinct kernels, in the request mix of the repository's
/// datacenter traffic model: per kernel, each goal (max-performance,
/// min-energy, min-EDP) in a third of the requests, and of each goal's
/// requests one in five uncapped and one in five at each cap of the pool
/// 22, 26, 30 and 40 W. The seed draws the order. `rounds` must be a
/// multiple of kMixPeriod.
inline constexpr std::size_t kMixPeriod = 15;
std::vector<Entry> make_mixed_list(const std::vector<PoolKernel>& pool,
                                   std::uint64_t seed, std::size_t rounds);

/// `rounds` bursts per pool kernel of `burst_size` max-performance
/// requests, each burst sweeping the cap upward in equal steps from a
/// stratified start in the lower half of the cap pool (22 to 31 W) to its
/// highest cap (40 W).
std::vector<Entry> make_burst_list(const std::vector<PoolKernel>& pool,
                                   std::uint64_t seed, std::size_t rounds,
                                   std::size_t burst_size);

/// Fills every entry's reference with serve::serve_with_model on `model`.
void compute_references(std::vector<Entry>& list,
                        const core::Predictor& model, std::uint64_t version,
                        const core::SchedulerOptions& scheduler);

struct Quality {
  double perf_vs_oracle = 0.0;  ///< capped max-performance requests
  std::size_t perf_requests = 0;
  double cap_met_frac = 0.0;  ///< capped requests
  std::size_t capped_requests = 0;
};

/// Scores the reference answers (which every served answer must equal)
/// against measured ground truth.
Quality score(const std::vector<Entry>& list,
              const std::vector<PoolKernel>& pool);

/// Counts outcomes of served requests across threads.
class Checker {
 public:
  /// Compares one response with its entry's reference, bit for bit.
  void check(const Entry& entry, const serve::SelectResponse& response,
             std::uint64_t expected_version);
  void add_lost(std::uint64_t n) { lost_ += n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t not_ok() const { return not_ok_; }
  std::uint64_t mismatched() const { return mismatched_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t failed() const { return not_ok_ + mismatched_ + lost_; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> not_ok_{0};
  std::atomic<std::uint64_t> mismatched_{0};
  std::atomic<std::uint64_t> lost_{0};
};

/// Forwards to a real predictor and times each predict call as a
/// core.predict span, parented through the obs::TraceContext the server
/// propagates to its workers. Counts calls and the calling thread's heap
/// allocations inside them.
class TracingPredictor final : public core::Predictor {
 public:
  explicit TracingPredictor(core::PredictorPtr inner)
      : inner_(std::move(inner)) {}

  std::string_view kind() const override { return inner_->kind(); }
  std::uint32_t format_version() const override {
    return inner_->format_version();
  }
  std::size_t cluster_count() const override {
    return inner_->cluster_count();
  }
  const hw::ConfigSpace& config_space() const override {
    return inner_->config_space();
  }
  std::size_t classify(const core::SamplePair& samples) const override {
    return inner_->classify(samples);
  }
  core::Prediction predict(const core::SamplePair& samples) const override;
  std::string serialize_body() const override {
    return inner_->serialize_body();
  }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t allocs() const { return allocs_.load(); }

 private:
  core::PredictorPtr inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> allocs_{0};
};

}  // namespace perfbench
