// Differential test of the compiled GP predictor. GpPredictor compiles
// each cluster at construction: perf posteriors become per-config tables,
// and the power posterior is factorised over groups of training rows that
// share their sample columns. The reference below is the direct
// per-configuration evaluation: one single-point GpRegressor posterior per
// config over the full power_features and perf_features rows.
//
// Cluster, performance, performance_sigma and the frontier indices must
// agree bit for bit. The factorised power posterior is exact algebra but
// sums in a different order (exp(-(a+b)) as exp(-a)·exp(-b), K⁻¹ instead
// of a forward substitution), so power_w must agree within a relative
// kPowerTolerance and power_sigma within kSigmaTolerance — the variance
// is signal + noise minus a quadratic form of nearly the same size, so
// its rounding grows near the noise floor. The selections made from the
// two predictions must be identical. Checked on every suite kernel for a
// trained model, its serialize -> parse round trip, a model whose GPs
// were strided down to a small row cap, and a degenerate model in which
// every training row is its own group. Also runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/features.h"
#include "core/gp_model.h"
#include "core/predictor.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "soc/machine.h"
#include "workloads/suite.h"

namespace acsel::core {
namespace {

constexpr double kPowerTolerance = 1e-12;
constexpr double kSigmaTolerance = 1e-8;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double relative_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

/// The per-configuration evaluation the compiled form replaces.
Prediction reference_predict(const GpPredictor& model,
                             const SamplePair& samples) {
  Prediction prediction;
  prediction.cluster = model.classify(samples);
  const GpPredictor::ClusterSurrogate& surrogate =
      model.cluster(prediction.cluster);
  const hw::ConfigSpace& space = model.config_space();
  std::vector<double> power(space.size());
  std::vector<double> perf(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const hw::Configuration& config = space.at(i);
    const auto power_mv =
        surrogate.power.predict(power_features(config, samples));
    Estimate estimate;
    estimate.power_w = std::max(1.0, power_mv.mean);
    estimate.power_sigma = std::sqrt(power_mv.variance);

    const bool on_gpu = config.device == hw::Device::Gpu;
    const GpRegressor& perf_gp =
        on_gpu ? surrogate.perf_gpu : surrogate.perf_cpu;
    const double s_perf =
        on_gpu ? samples.gpu.performance() : samples.cpu.performance();
    const auto perf_mv = perf_gp.predict(perf_features(config));
    estimate.performance = std::max(1e-6, perf_mv.mean) * s_perf;
    estimate.performance_sigma = std::sqrt(perf_mv.variance) * s_perf;

    power[i] = estimate.power_w;
    perf[i] = estimate.performance;
    prediction.per_config.push_back(estimate);
  }
  prediction.frontier = pareto::ParetoFrontier::build(power, perf);
  return prediction;
}

/// How far apart two predictions are: fields that must match bit for bit
/// and differ, and the largest relative power differences.
struct Divergence {
  int exact_mismatches = 0;
  double power_w = 0.0;
  double power_sigma = 0.0;
};

Divergence compare(const Prediction& a, const Prediction& b) {
  Divergence out;
  out.exact_mismatches = a.cluster == b.cluster ? 0 : 1;
  if (a.per_config.size() != b.per_config.size()) {
    ++out.exact_mismatches;
    return out;
  }
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    const Estimate& x = a.per_config[i];
    const Estimate& y = b.per_config[i];
    out.exact_mismatches += same_bits(x.performance, y.performance) ? 0 : 1;
    out.exact_mismatches +=
        same_bits(x.performance_sigma, y.performance_sigma) ? 0 : 1;
    out.power_w = std::max(out.power_w, relative_diff(x.power_w, y.power_w));
    out.power_sigma = std::max(out.power_sigma,
                               relative_diff(x.power_sigma, y.power_sigma));
  }
  const auto& fa = a.frontier.points();
  const auto& fb = b.frontier.points();
  if (fa.size() != fb.size()) {
    ++out.exact_mismatches;
    return out;
  }
  for (std::size_t i = 0; i < fa.size(); ++i) {
    out.exact_mismatches += fa[i].config_index == fb[i].config_index ? 0 : 1;
  }
  return out;
}

/// Fields of two compiled predictions that differ in bits (0 = identical).
int bit_mismatches(const Prediction& a, const Prediction& b) {
  const Divergence d = compare(a, b);
  return d.exact_mismatches + (d.power_w == 0.0 ? 0 : 1) +
         (d.power_sigma == 0.0 ? 0 : 1);
}

/// Selections from the two predictions that differ, over every goal, the
/// 22/26/30/40 W cap pool and UCB z in {0, 0.5}.
int selection_mismatches(const Prediction& a, const Prediction& b) {
  int diffs = 0;
  for (const double z : {0.0, 0.5}) {
    SchedulerOptions options;
    if (z > 0.0) {
      options.policy = SelectionPolicy::upper_confidence(z);
    }
    const Scheduler sa{a, options};
    const Scheduler sb{b, options};
    for (const SchedulingGoal goal :
         {SchedulingGoal::MaxPerformance, SchedulingGoal::MinEnergy,
          SchedulingGoal::MinEnergyDelay}) {
      for (const double cap : {22.0, 26.0, 30.0, 40.0}) {
        const Scheduler::Choice ca = sa.select_goal(goal, cap);
        const Scheduler::Choice cb = sb.select_goal(goal, cap);
        diffs += ca.config_index == cb.config_index &&
                         ca.predicted_feasible == cb.predicted_feasible
                     ? 0
                     : 1;
      }
    }
  }
  return diffs;
}

class GpCompiledTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const soc::Machine machine{soc::MachineSpec{}, 1313};
    kernels_ = new std::vector<KernelCharacterization>(
        eval::characterize(machine, workloads::Suite::standard()));
    TrainerOptions options;
    options.predictor = PredictorKind::GaussianProcess;
    trained_ = new std::shared_ptr<const GpPredictor>(
        as_gp(train_predictor(*kernels_, options).predictor));
    options.gp_max_rows = 48;
    strided_ = new std::shared_ptr<const GpPredictor>(
        as_gp(train_predictor(*kernels_, options).predictor));
  }

  static void TearDownTestSuite() {
    delete strided_;
    delete trained_;
    delete kernels_;
  }

  static std::shared_ptr<const GpPredictor> as_gp(const PredictorPtr& p) {
    auto gp = std::dynamic_pointer_cast<const GpPredictor>(p);
    EXPECT_NE(gp, nullptr);
    return gp;
  }

  static void expect_matches_reference(const GpPredictor& model) {
    Divergence worst;
    for (std::size_t k = 0; k < kernels_->size(); ++k) {
      const SamplePair& samples = (*kernels_)[k].samples;
      const Prediction compiled = model.predict(samples);
      const Prediction reference = reference_predict(model, samples);
      const Divergence d = compare(compiled, reference);
      EXPECT_EQ(d.exact_mismatches, 0) << "kernel " << k;
      EXPECT_LE(d.power_w, kPowerTolerance) << "kernel " << k;
      EXPECT_LE(d.power_sigma, kSigmaTolerance) << "kernel " << k;
      EXPECT_EQ(selection_mismatches(compiled, reference), 0)
          << "kernel " << k;
      worst.power_w = std::max(worst.power_w, d.power_w);
      worst.power_sigma = std::max(worst.power_sigma, d.power_sigma);
    }
    std::ostringstream os;
    os << std::scientific << std::setprecision(2) << worst.power_w << ' '
       << worst.power_sigma;
    RecordProperty("max_rel_power_w_and_sigma", os.str());
  }

  static std::vector<KernelCharacterization>* kernels_;
  static std::shared_ptr<const GpPredictor>* trained_;
  static std::shared_ptr<const GpPredictor>* strided_;
};

std::vector<KernelCharacterization>* GpCompiledTest::kernels_ = nullptr;
std::shared_ptr<const GpPredictor>* GpCompiledTest::trained_ = nullptr;
std::shared_ptr<const GpPredictor>* GpCompiledTest::strided_ = nullptr;

TEST_F(GpCompiledTest, TrainedModelMatchesPerConfigReference) {
  ASSERT_EQ(kernels_->size(), workloads::Suite::standard().size());
  expect_matches_reference(**trained_);
}

TEST_F(GpCompiledTest, ParsedModelMatchesPerConfigReference) {
  const GpPredictor parsed = GpPredictor::parse((*trained_)->serialize());
  expect_matches_reference(parsed);
  for (const KernelCharacterization& kernel : *kernels_) {
    EXPECT_EQ(bit_mismatches(parsed.predict(kernel.samples),
                             (*trained_)->predict(kernel.samples)),
              0);
  }
}

TEST_F(GpCompiledTest, StridedModelMatchesPerConfigReference) {
  const GpPredictor& model = **strided_;
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    EXPECT_LE(model.cluster(c).power.training_rows(), 48u);
    EXPECT_LE(model.cluster(c).perf_cpu.training_rows(), 48u);
  }
  expect_matches_reference(model);
}

TEST_F(GpCompiledTest, OneGroupPerRowMatchesPerConfigReference) {
  // Every power-GP training row gets its own sample columns, so there are
  // as many groups as rows and grouping saves nothing: the factorised
  // algebra alone is checked.
  const GpPredictor& base = **strided_;
  std::vector<GpPredictor::ClusterSurrogate> clusters;
  for (std::size_t c = 0; c < base.cluster_count(); ++c) {
    GpPredictor::ClusterSurrogate surrogate = base.cluster(c);
    const GpRegressor& power = surrogate.power;
    linalg::Matrix x = power.training_inputs();
    std::vector<double> y;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      x(i, kPowerConfigColumns) += 1e-3 * static_cast<double>(i);
      y.push_back(power.predict(power.training_inputs().row(i)).mean);
    }
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        ASSERT_FALSE(std::equal(x.row(i).begin() + kPowerConfigColumns,
                                x.row(i).end(),
                                x.row(j).begin() + kPowerConfigColumns));
      }
    }
    GpHyperparams hp;
    hp.length_scale = power.length_scale();
    hp.signal_variance = power.signal_variance();
    hp.noise_fraction = power.noise_variance() / power.signal_variance();
    surrogate.power = GpRegressor::fit(x, y, hp);
    clusters.push_back(std::move(surrogate));
  }
  const GpPredictor model{std::move(clusters), base.tree()};
  expect_matches_reference(model);
}

TEST_F(GpCompiledTest, BatchOfOneAndBatchOfManyMatchSinglePoint) {
  // Every query's arithmetic in predict_batch is independent of the
  // batch width: m = 1 and m = all configs give predict()'s bits.
  const GpRegressor& gp = (*trained_)->cluster(0).power;
  const linalg::Matrix& x = gp.training_inputs();
  const hw::ConfigSpace space;
  const SamplePair& samples = kernels_->front().samples;
  const std::size_t n = gp.training_rows();
  const std::size_t m = space.size();
  std::vector<double> batch_sq_dist(n * m);
  std::vector<GpRegressor::MeanVariance> singles;
  for (std::size_t q = 0; q < m; ++q) {
    const std::vector<double> features = power_features(space.at(q), samples);
    std::vector<double> sq_dist(n);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t c = 0; c < features.size(); ++c) {
        const double diff = x(i, c) - features[c];
        sum += diff * diff;
      }
      sq_dist[i] = sum;
      batch_sq_dist[i * m + q] = sum;
    }
    GpRegressor::MeanVariance one;
    gp.predict_batch(sq_dist, {&one, 1});
    const GpRegressor::MeanVariance single = gp.predict(features);
    EXPECT_TRUE(same_bits(one.mean, single.mean)) << q;
    EXPECT_TRUE(same_bits(one.variance, single.variance)) << q;
    singles.push_back(single);
  }
  std::vector<GpRegressor::MeanVariance> batch(m);
  gp.predict_batch(batch_sq_dist, batch);
  for (std::size_t q = 0; q < m; ++q) {
    EXPECT_TRUE(same_bits(batch[q].mean, singles[q].mean)) << q;
    EXPECT_TRUE(same_bits(batch[q].variance, singles[q].variance)) << q;
  }
}

TEST_F(GpCompiledTest, ConcurrentPredictMatchesSerial) {
  const GpPredictor& model = **trained_;
  std::vector<Prediction> serial;
  for (const KernelCharacterization& kernel : *kernels_) {
    serial.push_back(model.predict(kernel.samples));
  }
  constexpr int kThreads = 8;
  std::vector<int> diffs(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different kernel so different clusters
      // are in flight at once.
      for (std::size_t j = 0; j < kernels_->size(); ++j) {
        const std::size_t k =
            (j + static_cast<std::size_t>(t) * 7) % kernels_->size();
        diffs[static_cast<std::size_t>(t)] += bit_mismatches(
            model.predict((*kernels_)[k].samples), serial[k]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(diffs[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace acsel::core
