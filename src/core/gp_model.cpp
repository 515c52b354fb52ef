#include "core/gp_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "core/features.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace acsel::core {

namespace {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Median pairwise distance over (a deterministic prefix of) the rows —
/// the standard length-scale heuristic when none is given.
double median_distance(const linalg::Matrix& x) {
  const std::size_t n = std::min<std::size_t>(x.rows(), 64);
  std::vector<double> distances;
  distances.reserve(n * (n - 1) / 2 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      distances.push_back(std::sqrt(squared_distance(x.row(i), x.row(j))));
    }
  }
  if (distances.empty()) {
    return 1.0;
  }
  const std::size_t mid = distances.size() / 2;
  std::nth_element(distances.begin(),
                   distances.begin() + static_cast<std::ptrdiff_t>(mid),
                   distances.end());
  const double median = distances[mid];
  return median > 0.0 ? median : 1.0;
}

/// One row of the forward substitution V = L⁻¹K* for W adjacent queries
/// (columns of `v`, an n x stride row-major block): row i becomes
/// (k*_i - Σ_{j<i} l_ij v_j) / l_ii. Each query's sum runs in j order,
/// exactly the single-query recurrence, and stays in a register.
template <std::size_t W>
void forward_substitute(const double* l_i, std::size_t i, double* v,
                        std::size_t stride) {
  std::array<double, W> sum;
  for (std::size_t k = 0; k < W; ++k) {
    sum[k] = v[i * stride + k];
  }
  for (std::size_t j = 0; j < i; ++j) {
    const double l_ij = l_i[j];
    const double* const v_j = v + j * stride;
    for (std::size_t k = 0; k < W; ++k) {
      sum[k] -= l_ij * v_j[k];
    }
  }
  for (std::size_t k = 0; k < W; ++k) {
    v[i * stride + k] = sum[k] / l_i[i];
  }
}

/// Σ a_k·b_k over `size` entries in four interleaved partial sums, so a
/// long table row is not one serial chain of additions.
double dot(const double* a, const double* b, std::size_t size) {
  double s_0 = 0.0;
  double s_1 = 0.0;
  double s_2 = 0.0;
  double s_3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= size; k += 4) {
    s_0 += a[k] * b[k];
    s_1 += a[k + 1] * b[k + 1];
    s_2 += a[k + 2] * b[k + 2];
    s_3 += a[k + 3] * b[k + 3];
  }
  for (; k < size; ++k) {
    s_0 += a[k] * b[k];
  }
  return (s_0 + s_1) + (s_2 + s_3);
}

}  // namespace

GpRegressor GpRegressor::fit(const linalg::Matrix& x,
                             std::span<const double> y,
                             const GpHyperparams& hp, std::size_t max_rows) {
  ACSEL_CHECK_MSG(x.rows() == y.size() && x.rows() > 0 && x.cols() > 0,
                  "GpRegressor::fit: shape mismatch or empty data");
  ACSEL_CHECK_MSG(max_rows > 0, "GpRegressor::fit: max_rows must be > 0");

  GpRegressor gp;
  if (x.rows() <= max_rows) {
    gp.x_ = x;
    gp.y_.assign(y.begin(), y.end());
  } else {
    // Deterministic stride subsample: index order is the training-row
    // order, which the trainer builds identically at any thread count.
    const std::size_t stride = (x.rows() + max_rows - 1) / max_rows;
    const std::size_t kept = (x.rows() + stride - 1) / stride;
    gp.x_ = linalg::Matrix{kept, x.cols()};
    gp.y_.reserve(kept);
    std::size_t out = 0;
    for (std::size_t i = 0; i < x.rows(); i += stride, ++out) {
      const auto row = x.row(i);
      for (std::size_t c = 0; c < x.cols(); ++c) {
        gp.x_(out, c) = row[c];
      }
      gp.y_.push_back(y[i]);
    }
  }

  gp.length_scale_ =
      hp.length_scale > 0.0 ? hp.length_scale : median_distance(gp.x_);

  if (hp.signal_variance > 0.0) {
    gp.signal_variance_ = hp.signal_variance;
  } else {
    const std::size_t n = gp.y_.size();
    double mean = 0.0;
    for (const double v : gp.y_) mean += v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (const double v : gp.y_) var += (v - mean) * (v - mean);
    var /= static_cast<double>(n);
    gp.signal_variance_ = std::max(var, 1e-12);
  }

  const double fraction = hp.noise_fraction > 0.0 ? hp.noise_fraction : 1e-6;
  gp.noise_variance_ = std::max(gp.signal_variance_ * fraction,
                                gp.signal_variance_ * 1e-10);
  gp.finalize();
  return gp;
}

void GpRegressor::finalize() {
  const std::size_t n = y_.size();
  y_mean_ = 0.0;
  for (const double v : y_) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);

  linalg::Matrix k{n, n};
  const double inv_2l2 = 1.0 / (2.0 * length_scale_ * length_scale_);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = signal_variance_ + noise_variance_;
    for (std::size_t j = 0; j < i; ++j) {
      const double v = signal_variance_ *
                       std::exp(-squared_distance(x_.row(i), x_.row(j)) *
                                inv_2l2);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  chol_ = linalg::CholeskyFactorization{k};
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) {
    centered[i] = y_[i] - y_mean_;
  }
  alpha_ = chol_.solve(centered);
}

GpRegressor::MeanVariance GpRegressor::predict(
    std::span<const double> features) const {
  ACSEL_CHECK_MSG(features.size() == x_.cols(),
                  "GpRegressor::predict: feature count mismatch");
  std::vector<double> sq_dist(x_.rows());
  for (std::size_t i = 0; i < sq_dist.size(); ++i) {
    sq_dist[i] = squared_distance(x_.row(i), features);
  }
  MeanVariance out;
  predict_batch(sq_dist, {&out, 1});
  return out;
}

void GpRegressor::predict_batch(std::span<double> sq_dist,
                                std::span<MeanVariance> out) const {
  ACSEL_CHECK_MSG(!y_.empty(), "GpRegressor::predict before fit/parse");
  const std::size_t n = y_.size();
  const std::size_t m = out.size();
  ACSEL_CHECK_MSG(sq_dist.size() == n * m,
                  "GpRegressor::predict_batch: workspace is not n x m");
  const double inv_2l2 = 1.0 / (2.0 * length_scale_ * length_scale_);
  const double* const l = chol_.l().data().data();
  // Until the final pass, mean holds k*·α and variance holds |L⁻¹k*|².
  for (MeanVariance& q : out) {
    q = MeanVariance{};
  }
  // Row i of the workspace turns from squared distances into k*_i and
  // then, by forward substitution against the rows above it, into
  // v_i = (L⁻¹K*)_i. Every query accumulates in training-row order.
  for (std::size_t i = 0; i < n; ++i) {
    double* const v_i = sq_dist.data() + i * m;
    for (std::size_t q = 0; q < m; ++q) {
      v_i[q] = signal_variance_ * std::exp(-v_i[q] * inv_2l2);
      out[q].mean += v_i[q] * alpha_[i];
    }
    const double* const l_i = l + i * n;
    std::size_t q0 = 0;
    for (; q0 + 4 <= m; q0 += 4) {
      forward_substitute<4>(l_i, i, sq_dist.data() + q0, m);
    }
    for (; q0 < m; ++q0) {
      forward_substitute<1>(l_i, i, sq_dist.data() + q0, m);
    }
    for (std::size_t q = 0; q < m; ++q) {
      out[q].variance += v_i[q] * v_i[q];
    }
  }
  for (MeanVariance& q : out) {
    q = posterior(q.mean, q.variance);
  }
}

GpRegressor::MeanVariance GpRegressor::posterior(double k_alpha,
                                                 double reduction) const {
  // var = k(x*,x*) + noise - |L⁻¹ k*|² — the posterior shrinks toward the
  // noise floor at training points and opens to signal + noise far away.
  return {y_mean_ + k_alpha,
          std::max(0.0, signal_variance_ + noise_variance_ - reduction)};
}

double GpRegressor::correlation(double sq_dist) const {
  return std::exp(-sq_dist / (2.0 * length_scale_ * length_scale_));
}

GpRegressor::GroupTables GpRegressor::group_tables(
    std::span<const std::size_t> group_of_row, std::size_t groups,
    std::span<const double> factor) const {
  ACSEL_CHECK_MSG(!y_.empty(), "GpRegressor::group_tables before fit/parse");
  const std::size_t n = y_.size();
  ACSEL_CHECK_MSG(group_of_row.size() == n && groups > 0 &&
                      factor.size() % n == 0,
                  "GpRegressor::group_tables: shape mismatch");
  const std::size_t m = factor.size() / n;
  for (const std::size_t g : group_of_row) {
    ACSEL_CHECK_MSG(g < groups, "GpRegressor::group_tables: group index");
  }

  // Sums run over all m queries at once (query innermost), group-major;
  // the tables are scaled by s² and s⁴ and made query-major at the end.
  const linalg::Matrix k_inv = chol_.inverse();
  const std::size_t pairs = groups * (groups + 1) / 2;
  std::vector<double> mean(groups * m, 0.0);
  std::vector<double> quad(pairs * m, 0.0);
  std::vector<double> u(groups * m);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = group_of_row[i];
    const double* const a_i = factor.data() + i * m;
    for (std::size_t q = 0; q < m; ++q) {
      mean[g * m + q] += a_i[q] * alpha_[i];
    }
    // u_h = Σ_{j∈h} (K⁻¹)_ij a_j for every group h >= g; row i's pairs
    // with lower groups are counted from the other side.
    std::fill(u.begin() + static_cast<std::ptrdiff_t>(g * m), u.end(), 0.0);
    const std::span<const double> k_inv_i = k_inv.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t h = group_of_row[j];
      if (h < g) {
        continue;
      }
      const double k_ij = k_inv_i[j];
      const double* const a_j = factor.data() + j * m;
      double* const u_h = u.data() + h * m;
      for (std::size_t q = 0; q < m; ++q) {
        u_h[q] += k_ij * a_j[q];
      }
    }
    // Pairs (g, h >= g) start at g·groups - g(g-1)/2.
    double* const quad_g = quad.data() + (g * groups - g * (g - 1) / 2) * m;
    for (std::size_t h = g; h < groups; ++h) {
      const double count = h == g ? 1.0 : 2.0;
      double* const quad_gh = quad_g + (h - g) * m;
      const double* const u_h = u.data() + h * m;
      for (std::size_t q = 0; q < m; ++q) {
        quad_gh[q] += count * a_i[q] * u_h[q];
      }
    }
  }

  const double s2 = signal_variance_;
  GroupTables tables;
  tables.groups = groups;
  tables.mean.resize(m * groups);
  tables.quad.resize(m * pairs);
  for (std::size_t q = 0; q < m; ++q) {
    for (std::size_t g = 0; g < groups; ++g) {
      tables.mean[q * groups + g] = s2 * mean[g * m + q];
    }
    for (std::size_t gh = 0; gh < pairs; ++gh) {
      tables.quad[q * pairs + gh] = s2 * s2 * quad[gh * m + q];
    }
  }
  return tables;
}

std::string GpRegressor::serialize() const {
  ACSEL_CHECK_MSG(!y_.empty(), "GpRegressor::serialize before fit/parse");
  std::ostringstream os;
  os << x_.rows() << ' ' << x_.cols() << ' '
     << format_double(length_scale_, 17) << ' '
     << format_double(signal_variance_, 17) << ' '
     << format_double(noise_variance_, 17);
  for (std::size_t r = 0; r < x_.rows(); ++r) {
    for (std::size_t c = 0; c < x_.cols(); ++c) {
      os << ' ' << format_double(x_(r, c), 17);
    }
  }
  for (const double v : y_) {
    os << ' ' << format_double(v, 17);
  }
  return os.str();
}

GpRegressor GpRegressor::parse(const std::string& line) {
  const std::vector<std::string> fields = split(trim(line), ' ');
  ACSEL_CHECK_MSG(fields.size() >= 5, "GpRegressor::parse: truncated line");
  GpRegressor gp;
  const std::size_t n = parse_size(fields[0]);
  const std::size_t d = parse_size(fields[1]);
  ACSEL_CHECK_MSG(n > 0 && d > 0, "GpRegressor::parse: empty shape");
  gp.length_scale_ = parse_double(fields[2]);
  gp.signal_variance_ = parse_double(fields[3]);
  gp.noise_variance_ = parse_double(fields[4]);
  ACSEL_CHECK_MSG(gp.length_scale_ > 0.0 && gp.signal_variance_ > 0.0 &&
                      gp.noise_variance_ > 0.0,
                  "GpRegressor::parse: non-positive hyperparameter");
  ACSEL_CHECK_MSG(fields.size() == 5 + n * d + n,
                  "GpRegressor::parse: field count mismatch");
  gp.x_ = linalg::Matrix{n, d};
  std::size_t f = 5;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      gp.x_(r, c) = parse_double(fields[f++]);
    }
  }
  gp.y_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gp.y_.push_back(parse_double(fields[f++]));
  }
  gp.finalize();
  return gp;
}

GpPredictor::GpPredictor(std::vector<ClusterSurrogate> clusters,
                         stats::Cart tree)
    : clusters_(std::move(clusters)), tree_(std::move(tree)) {
  ACSEL_CHECK_MSG(!clusters_.empty(), "GpPredictor needs >= 1 cluster");
  ACSEL_CHECK_MSG(tree_.feature_count() ==
                      classification_feature_names().size(),
                  "tree feature count mismatch");
  compiled_.reserve(clusters_.size());
  for (const ClusterSurrogate& surrogate : clusters_) {
    compiled_.push_back(compile(surrogate, space_));
  }
}

GpPredictor::CompiledCluster GpPredictor::compile(
    const ClusterSurrogate& surrogate, const hw::ConfigSpace& space) {
  ACSEL_CHECK_MSG(
      surrogate.power.feature_count() == power_feature_names().size() &&
          surrogate.perf_cpu.feature_count() == perf_feature_names().size() &&
          surrogate.perf_gpu.feature_count() == perf_feature_names().size(),
      "GP surrogate feature count mismatch");
  const std::size_t m = space.size();
  CompiledCluster compiled;

  compiled.perf_ratio.resize(m);
  compiled.perf_sigma.resize(m);
  for (const hw::Device device : {hw::Device::Cpu, hw::Device::Gpu}) {
    const GpRegressor& gp = device == hw::Device::Gpu ? surrogate.perf_gpu
                                                      : surrogate.perf_cpu;
    const std::vector<std::size_t> configs = space.indices_for(device);
    const std::size_t k = configs.size();
    std::vector<double> sq_dist(gp.training_rows() * k);
    for (std::size_t q = 0; q < k; ++q) {
      const std::vector<double> features = perf_features(space.at(configs[q]));
      for (std::size_t i = 0; i < gp.training_rows(); ++i) {
        sq_dist[i * k + q] =
            squared_distance(gp.training_inputs().row(i), features);
      }
    }
    std::vector<GpRegressor::MeanVariance> posterior(k);
    gp.predict_batch(sq_dist, posterior);
    for (std::size_t q = 0; q < k; ++q) {
      compiled.perf_ratio[configs[q]] = std::max(1e-6, posterior[q].mean);
      compiled.perf_sigma[configs[q]] = std::sqrt(posterior[q].variance);
    }
  }

  // Group the power GP's rows by their sample columns, then tabulate the
  // configuration factor a_iq for every (row, config).
  const GpRegressor& power = surrogate.power;
  const linalg::Matrix& x = power.training_inputs();
  const std::size_t n = x.rows();
  std::vector<std::size_t> group_of_row(n);
  std::size_t groups = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> tail = x.row(i).subspan(kPowerConfigColumns);
    std::size_t g = 0;
    while (g < groups &&
           !std::equal(tail.begin(), tail.end(),
                       compiled.group_tail.data() + g * kPowerSampleColumns)) {
      ++g;
    }
    if (g == groups) {
      compiled.group_tail.insert(compiled.group_tail.end(), tail.begin(),
                                 tail.end());
      ++groups;
    }
    group_of_row[i] = g;
  }
  std::vector<double> factor(n * m);
  for (std::size_t q = 0; q < m; ++q) {
    const std::array<double, kPowerConfigColumns> head =
        power_config_features(space.at(q));
    for (std::size_t i = 0; i < n; ++i) {
      factor[i * m + q] = power.correlation(
          squared_distance(x.row(i).first(kPowerConfigColumns), head));
    }
  }
  compiled.power = power.group_tables(group_of_row, groups, factor);
  return compiled;
}

const GpPredictor::ClusterSurrogate& GpPredictor::cluster(
    std::size_t index) const {
  ACSEL_CHECK_MSG(index < clusters_.size(), "cluster index out of range");
  return clusters_[index];
}

std::size_t GpPredictor::classify(const SamplePair& samples) const {
  ACSEL_OBS_SPAN("classify", "model");
  const std::size_t label = tree_.predict(classification_features(samples));
  ACSEL_CHECK_MSG(label < clusters_.size(),
                  "classified into a cluster with no model");
  return label;
}

Prediction GpPredictor::predict(const SamplePair& samples) const {
  ACSEL_OBS_SPAN("predict", "model");
  Prediction prediction;
  prediction.cluster = classify(samples);
  const GpRegressor& power_gp = clusters_[prediction.cluster].power;
  const CompiledCluster& compiled = compiled_[prediction.cluster];
  const GpRegressor::GroupTables& tables = compiled.power;
  const std::size_t m = space_.size();
  const std::size_t groups = tables.groups;
  const std::size_t pairs = tables.quad.size() / m;

  prediction.per_config.resize(m);
  // Per-call scratch: the group factors b_g, then the pair products.
  std::vector<double> weights(groups + pairs);
  double* const b = weights.data();
  double* const bb = b + groups;
  // One pass per device: the request's sample columns for that device give
  // every group's sample factor b_g, and the products b_g·b_h weight the
  // quad tables of the device's configs.
  for (const hw::Device device : {hw::Device::Cpu, hw::Device::Gpu}) {
    const std::array<double, kPowerSampleColumns> tail =
        power_sample_features(device, samples);
    for (std::size_t g = 0; g < groups; ++g) {
      const double* const group_tail =
          compiled.group_tail.data() + g * kPowerSampleColumns;
      double sum = 0.0;
      for (std::size_t c = 0; c < kPowerSampleColumns; ++c) {
        const double diff = group_tail[c] - tail[c];
        sum += diff * diff;
      }
      b[g] = power_gp.correlation(sum);
    }
    std::size_t pair = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t h = g; h < groups; ++h) {
        bb[pair++] = b[g] * b[h];
      }
    }
    const double s_perf = device == hw::Device::Gpu
                              ? samples.gpu.performance()
                              : samples.cpu.performance();
    for (std::size_t q = 0; q < m; ++q) {
      if (space_.at(q).device != device) {
        continue;
      }
      const GpRegressor::MeanVariance mv = power_gp.posterior(
          dot(tables.mean.data() + q * groups, b, groups),
          dot(tables.quad.data() + q * pairs, bb, pairs));
      Estimate& estimate = prediction.per_config[q];
      estimate.power_w = std::max(1.0, mv.mean);
      estimate.power_sigma = std::sqrt(mv.variance);
      estimate.performance = compiled.perf_ratio[q] * s_perf;
      estimate.performance_sigma = compiled.perf_sigma[q] * s_perf;
    }
  }
  std::vector<double> power(m);
  std::vector<double> perf(m);
  for (std::size_t q = 0; q < m; ++q) {
    power[q] = prediction.per_config[q].power_w;
    perf[q] = prediction.per_config[q].performance;
  }
  prediction.frontier = pareto::ParetoFrontier::build(power, perf);
  return prediction;
}

std::string GpPredictor::serialize_body() const {
  std::ostringstream os;
  os << "clusters " << clusters_.size() << '\n';
  for (const ClusterSurrogate& surrogate : clusters_) {
    os << surrogate.power.serialize() << '\n'
       << surrogate.perf_cpu.serialize() << '\n'
       << surrogate.perf_gpu.serialize() << '\n';
  }
  os << "tree\n" << tree_.serialize();
  return os.str();
}

namespace {

GpPredictor parse_gp_body(std::istringstream& is) {
  std::string line;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)) &&
                      starts_with(line, "clusters "),
                  "missing cluster count");
  const std::size_t k = parse_size(split(line, ' ')[1]);
  ACSEL_CHECK_MSG(k >= 1, "model must have >= 1 cluster");

  std::vector<GpPredictor::ClusterSurrogate> clusters;
  clusters.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    GpPredictor::ClusterSurrogate surrogate;
    GpRegressor* const gps[3] = {&surrogate.power, &surrogate.perf_cpu,
                                 &surrogate.perf_gpu};
    for (GpRegressor* gp : gps) {
      ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                      "truncated cluster block");
      *gp = GpRegressor::parse(line);
    }
    clusters.push_back(std::move(surrogate));
  }
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, line)) && line == "tree",
                  "missing tree section");
  std::ostringstream rest;
  rest << is.rdbuf();
  return GpPredictor{std::move(clusters), stats::Cart::parse(rest.str())};
}

}  // namespace

GpPredictor GpPredictor::parse(const std::string& text) {
  std::istringstream is{text};
  std::string header;
  ACSEL_CHECK_MSG(static_cast<bool>(std::getline(is, header)),
                  "empty model text");
  const std::string envelope = "acsel-predictor " + std::string{kKind} + " v1";
  if (header != envelope) {
    throw PredictorFormatError{"unknown model format"};
  }
  return parse_gp_body(is);
}

PredictorPtr GpPredictor::parse_shared(std::uint32_t version,
                                       const std::string& body) {
  ACSEL_CHECK_MSG(version == 1, "gp-sqexp body version must be 1");
  std::istringstream is{body};
  return std::make_shared<const GpPredictor>(parse_gp_body(is));
}

}  // namespace acsel::core
