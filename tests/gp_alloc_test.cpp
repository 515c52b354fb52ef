// Allocation gate for the GP predictor: heap allocations and bytes per
// steady-state GpPredictor::predict must stay under fixed bounds.
// Allocation counts are deterministic where wall time is not, so this is
// the CI proxy for "predict does its work once at construction, not on
// every request"; the byte bound shows no per-request workspace that
// grows with the training rows (n x configs) is left.
// This binary replaces the global operator new to count allocations, so
// it must stay a test executable of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/gp_model.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "soc/machine.h"
#include "workloads/suite.h"

namespace {

thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_bytes = 0;

void* checked(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

// The array and nothrow forms forward to these in libstdc++; the aligned
// forms do not, so they are replaced too.
void* operator new(std::size_t size) {
  ++t_allocs;
  t_bytes += size;
  return checked(std::malloc(size == 0 ? 1 : size));
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  t_bytes += size;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return checked(std::aligned_alloc(a, rounded == 0 ? a : rounded));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace acsel::core {
namespace {

/// Heap allocations one GpPredictor::predict may make: the classifier's
/// feature vector, one scratch buffer of group and pair weights, the
/// Prediction's estimates, and the frontier build. The per-config
/// evaluation the compiled form replaced made ~335.
constexpr std::uint64_t kMaxAllocsPerPredict = 13;

/// Bytes one predict may allocate. The scratch buffer grows with the
/// number of sample groups (G + G(G+1)/2 doubles), not with the n training
/// rows; the test checks this stays a small fraction of one n x configs
/// table of doubles, the workspace the group factorisation removed.
constexpr std::uint64_t kMaxBytesPerPredict = 8192;

TEST(GpAllocGate, SteadyStatePredictStaysUnderTheBound) {
  const soc::Machine machine{soc::MachineSpec{}, 1313};
  const std::vector<KernelCharacterization> kernels =
      eval::characterize(machine, workloads::Suite::standard());
  const std::span<const KernelCharacterization> training{kernels.data(), 24};
  TrainerOptions options;
  options.predictor = PredictorKind::GaussianProcess;
  const PredictorPtr model = train_predictor(training, options).predictor;
  ASSERT_EQ(model->kind(), GpPredictor::kKind);
  const auto& gp = dynamic_cast<const GpPredictor&>(*model);
  std::size_t fewest_rows = gp.cluster(0).power.training_rows();
  for (std::size_t c = 1; c < gp.cluster_count(); ++c) {
    fewest_rows = std::min(fewest_rows, gp.cluster(c).power.training_rows());
  }
  const std::uint64_t smallest_table =
      fewest_rows * model->config_space().size() * sizeof(double);
  EXPECT_LE(4 * kMaxBytesPerPredict, smallest_table);
  RecordProperty("smallest_table_bytes", static_cast<int>(smallest_table));

  // Warm up once (first-use statics), then measure every kernel: each
  // lands in some cluster, so every compiled cluster is exercised.
  (void)model->predict(kernels.front().samples);
  std::uint64_t worst = 0;
  std::uint64_t worst_bytes = 0;
  for (const KernelCharacterization& kernel : kernels) {
    const std::uint64_t before = t_allocs;
    const std::uint64_t bytes_before = t_bytes;
    const Prediction prediction = model->predict(kernel.samples);
    const std::uint64_t allocs = t_allocs - before;
    const std::uint64_t bytes = t_bytes - bytes_before;
    ASSERT_EQ(prediction.per_config.size(), model->config_space().size());
    EXPECT_LE(allocs, kMaxAllocsPerPredict) << kernel.instance_id;
    EXPECT_LE(bytes, kMaxBytesPerPredict) << kernel.instance_id;
    worst = std::max(worst, allocs);
    worst_bytes = std::max(worst_bytes, bytes);
  }
  RecordProperty("worst_allocs_per_predict", static_cast<int>(worst));
  RecordProperty("worst_bytes_per_predict", static_cast<int>(worst_bytes));
}

}  // namespace
}  // namespace acsel::core
