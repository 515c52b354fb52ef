// Gaussian-process (kriging) surrogate predictor: the second
// core::Predictor implementation, trained on the same sample pairs and
// per-configuration measurements as the paper's cluster regressions but
// replacing each cluster's linear models with GP posteriors under a
// squared-exponential kernel. Where the linear model reports one global
// residual sigma, the GP's predictive variance *grows with distance from
// the training data* — exactly the signal the risk-averse SelectionPolicy
// and the variance-aware canary gate need near the power cap: a config
// the model has barely seen carries a wide interval and is selected (or
// promoted) more cautiously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterization.h"
#include "core/predictor.h"
#include "hw/config_space.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "stats/cart.h"

namespace acsel::core {

/// Squared-exponential kernel hyperparameters. Non-positive length_scale /
/// signal_variance mean "resolve from the data at fit time" (median
/// pairwise distance / target variance) — the resolved values are stored
/// and serialized, so a parsed model never re-resolves.
struct GpHyperparams {
  double length_scale = 0.0;
  double signal_variance = 0.0;
  /// Observation-noise variance as a fraction of the signal variance.
  double noise_fraction = 1e-2;
};

/// One scalar GP regression: constant-mean prior (the training-target
/// mean), k(a,b) = s² exp(-|a-b|² / 2ℓ²), exact posterior via Cholesky.
class GpRegressor {
 public:
  GpRegressor() = default;

  /// Fits on rows of `x` against `y`. Rows beyond `max_rows` are
  /// deterministically strided down — O(n³) factorization cost is bounded
  /// regardless of training-set size.
  static GpRegressor fit(const linalg::Matrix& x, std::span<const double> y,
                         const GpHyperparams& hp = {},
                         std::size_t max_rows = 256);

  struct MeanVariance {
    double mean = 0.0;
    /// Predictive variance of a new *observation* (posterior + noise);
    /// never negative.
    double variance = 0.0;
  };

  /// Posterior at one feature vector (length == feature_count()): the
  /// m = 1 case of predict_batch.
  MeanVariance predict(std::span<const double> features) const;

  /// Posteriors at m = out.size() query points in one pass. `sq_dist`
  /// holds the squared distance from every training row to every query,
  /// n x m row-major (training row outer, query inner and contiguous),
  /// and is overwritten as workspace. Each query's arithmetic is exactly
  /// that of a lone predict() call, so results do not depend on m. The
  /// forward substitution L⁻¹K* runs over all queries at once: O(m·n²).
  void predict_batch(std::span<double> sq_dist,
                     std::span<MeanVariance> out) const;

  /// Exact posterior tables for m queries whose kernel against training
  /// row i factorises as k_iq = s²·a_iq·b_g(i): a_iq (`factor`, n x m
  /// row-major, query inner) depends on the row and the query, b_g on
  /// the row's group g = `group_of_row[i]` < `groups` and on whatever a
  /// request adds. With the b_g known, one query's posterior is
  ///   mean     = ȳ + Σ_g b_g·mean[q][g]
  ///   |L⁻¹k*|² = Σ_{g<=h} b_g·b_h·quad[q][(g,h)]
  /// which posterior() turns into mean and variance. Costs one K⁻¹
  /// (n³/3) plus about m·n²/2 multiply-adds.
  struct GroupTables {
    std::size_t groups = 0;
    /// m x groups: s²·Σ_{i∈g} a_iq·α_i.
    std::vector<double> mean;
    /// m x groups(groups+1)/2, pairs g <= h row by row (h inner):
    /// s⁴·Σ_{i∈g, j∈h} a_iq·a_jq·(K⁻¹)_ij, off-diagonal pairs doubled to
    /// count (h, g) too.
    std::vector<double> quad;
  };
  GroupTables group_tables(std::span<const std::size_t> group_of_row,
                           std::size_t groups,
                           std::span<const double> factor) const;

  /// exp(-d / 2ℓ²): the kernel over s² at squared distance d.
  double correlation(double sq_dist) const;

  /// Mean and variance from a query's k*·α and |L⁻¹k*|².
  MeanVariance posterior(double k_alpha, double reduction) const;

  /// Retained training inputs, n x feature_count().
  const linalg::Matrix& training_inputs() const { return x_; }
  std::size_t training_rows() const { return x_.rows(); }
  std::size_t feature_count() const { return x_.cols(); }
  double length_scale() const { return length_scale_; }
  double signal_variance() const { return signal_variance_; }
  double noise_variance() const { return noise_variance_; }

  /// One-line serialization; round-trips through parse() with
  /// bit-identical predictions (the factorization is re-derived from the
  /// exactly-restored inputs).
  std::string serialize() const;
  static GpRegressor parse(const std::string& line);

 private:
  /// Rebuilds the kernel matrix, factorization and dual weights from
  /// x_/y_ and the resolved hyperparameters (shared by fit and parse).
  void finalize();

  linalg::Matrix x_;       ///< retained training inputs, n x d
  std::vector<double> y_;  ///< raw targets, length n
  double length_scale_ = 1.0;
  double signal_variance_ = 1.0;
  double noise_variance_ = 1e-2;
  // Derived state (never serialized):
  double y_mean_ = 0.0;
  std::vector<double> alpha_;            ///< K⁻¹ (y - mean)
  linalg::CholeskyFactorization chol_;  ///< K = L Lᵀ
};

/// The GP-family predictor: the same CART front end as TrainedModel (the
/// cluster assignment problem is unchanged) with three GP posteriors per
/// cluster — absolute power over power_features, and per-device relative
/// performance over perf_features.
///
/// The constructor compiles each cluster once. Perf posteriors depend on
/// the configuration alone, so they become per-config tables. The power
/// kernel splits into a configuration factor exp(-d_cfg/2ℓ²), constant
/// per (training row, config), and a sample factor exp(-d_smp/2ℓ²) that
/// depends only on the row's four sample columns. Rows with bit-identical
/// sample columns (one kernel's rows on one device) form a group, so the
/// power posterior is exactly a quadratic form in the G group factors:
/// GpRegressor::group_tables holds it per config. predict() then costs
/// 2G exps and O(configs·G²) multiply-adds, independent of n.
class GpPredictor final : public Predictor {
 public:
  /// Envelope tag of this family.
  static constexpr std::string_view kKind = "gp-sqexp";

  struct ClusterSurrogate {
    GpRegressor power;     ///< watts over power_features(config, samples)
    GpRegressor perf_cpu;  ///< perf / S_perf_cpu over CPU perf_features
    GpRegressor perf_gpu;  ///< perf / S_perf_gpu over GPU perf_features
  };

  GpPredictor() = default;
  GpPredictor(std::vector<ClusterSurrogate> clusters, stats::Cart tree);

  std::string_view kind() const override { return kKind; }
  std::size_t cluster_count() const override { return clusters_.size(); }
  const hw::ConfigSpace& config_space() const override { return space_; }
  const ClusterSurrogate& cluster(std::size_t index) const;
  const stats::Cart& tree() const { return tree_; }

  std::size_t classify(const SamplePair& samples) const override;
  Prediction predict(const SamplePair& samples) const override;

  std::string serialize_body() const override;
  static GpPredictor parse(const std::string& text);
  /// Factory hook: body parser behind the "gp-sqexp" envelope tag.
  static PredictorPtr parse_shared(std::uint32_t version,
                                   const std::string& body);

 private:
  /// The request-independent part of one cluster's posteriors.
  struct CompiledCluster {
    /// Per config: max(1e-6, perf-GP mean) and the perf-GP sigma, both
    /// relative to the same-device sample performance.
    std::vector<double> perf_ratio;
    std::vector<double> perf_sigma;
    /// groups x 4: the distinct sample columns of the power GP's
    /// training rows, one row per group.
    std::vector<double> group_tail;
    GpRegressor::GroupTables power;
  };
  static CompiledCluster compile(const ClusterSurrogate& surrogate,
                                 const hw::ConfigSpace& space);

  std::vector<ClusterSurrogate> clusters_;
  stats::Cart tree_;
  hw::ConfigSpace space_;
  std::vector<CompiledCluster> compiled_;  ///< parallel to clusters_
};

}  // namespace acsel::core
