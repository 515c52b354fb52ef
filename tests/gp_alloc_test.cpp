// Allocation gate for the GP predictor: heap allocations per steady-state
// GpPredictor::predict must stay under a fixed bound. Allocation counts
// are deterministic where wall time is not, so this is the CI proxy for
// "predict does its work once at construction, not on every request".
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
  return checked(std::malloc(size == 0 ? 1 : size));
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocs;
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
/// feature vector, the request's distance workspace and posterior buffer,
/// the Prediction's estimates, and the frontier build. The per-config
/// evaluation this replaced made ~335.
constexpr std::uint64_t kMaxAllocsPerPredict = 20;

TEST(GpAllocGate, SteadyStatePredictStaysUnderTheBound) {
  const soc::Machine machine{soc::MachineSpec{}, 1313};
  const std::vector<KernelCharacterization> kernels =
      eval::characterize(machine, workloads::Suite::standard());
  const std::span<const KernelCharacterization> training{kernels.data(), 24};
  TrainerOptions options;
  options.predictor = PredictorKind::GaussianProcess;
  const PredictorPtr model = train_predictor(training, options).predictor;
  ASSERT_EQ(model->kind(), GpPredictor::kKind);

  // Warm up once (first-use statics), then measure every kernel: each
  // lands in some cluster, so every compiled cluster is exercised.
  (void)model->predict(kernels.front().samples);
  std::uint64_t worst = 0;
  for (const KernelCharacterization& kernel : kernels) {
    const std::uint64_t before = t_allocs;
    const Prediction prediction = model->predict(kernel.samples);
    const std::uint64_t allocs = t_allocs - before;
    ASSERT_EQ(prediction.per_config.size(), model->config_space().size());
    EXPECT_LE(allocs, kMaxAllocsPerPredict) << kernel.instance_id;
    worst = std::max(worst, allocs);
  }
  RecordProperty("worst_allocs_per_predict", static_cast<int>(worst));
}

}  // namespace
}  // namespace acsel::core
