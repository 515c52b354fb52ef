#include "core/features.h"

#include <algorithm>

#include "util/error.h"

namespace acsel::core {

namespace {

/// Normalization scales chosen once: frequencies by their maxima, power by
/// a nominal 40 W (mid-TDP), ratios clipped to keep outliers from
/// dominating a fit.
constexpr double kPowerScaleW = 40.0;

double cpu_f_norm(const hw::Configuration& config) {
  return config.cpu_freq_ghz() /
         hw::cpu_pstates()[hw::kCpuMaxPState].freq_ghz;
}

double gpu_f_norm(const hw::Configuration& config) {
  // Parked GPUs (CPU device) contribute no GPU-frequency signal.
  if (config.device == hw::Device::Cpu) {
    return 0.0;
  }
  return config.gpu_freq_mhz() /
         hw::gpu_pstates()[hw::kGpuMaxPState].freq_mhz;
}

}  // namespace

std::vector<double> power_features(const hw::Configuration& config,
                                   const SamplePair& samples) {
  const std::array<double, kPowerConfigColumns> h =
      power_config_features(config);
  const std::array<double, kPowerSampleColumns> t =
      power_sample_features(config.device, samples);
  return {h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7],
          t[0], t[1], t[2], t[3]};
}

std::array<double, kPowerConfigColumns> power_config_features(
    const hw::Configuration& config) {
  config.validate();
  const double dev = config.device == hw::Device::Gpu ? 1.0 : 0.0;
  const double f = cpu_f_norm(config);
  const double thr = static_cast<double>(config.threads) /
                     static_cast<double>(hw::kCpuCores);
  const double g = gpu_f_norm(config);
  const double scatter =
      config.mapping == hw::CoreMapping::Scatter ? 1.0 : 0.0;
  return {dev, f, thr, g, scatter, f * thr, f * g, dev * f};
}

std::array<double, kPowerSampleColumns> power_sample_features(
    hw::Device device, const SamplePair& samples) {
  const double dev = device == hw::Device::Gpu ? 1.0 : 0.0;
  const double s_cpu = samples.cpu.total_power_w() / kPowerScaleW;
  const double s_gpu = samples.gpu.total_power_w() / kPowerScaleW;
  return {s_cpu, s_gpu, dev * s_gpu, (1.0 - dev) * s_cpu};
}

const std::vector<std::string>& power_feature_names() {
  static const std::vector<std::string> names{
      "dev",      "cpu_f",     "threads",     "gpu_f",
      "scatter",  "f_x_thr",   "f_x_gpu_f",   "dev_x_f",
      "s_pw_cpu", "s_pw_gpu",  "dev_x_s_gpu", "cpu_x_s_cpu",
  };
  return names;
}

std::vector<double> perf_features(const hw::Configuration& config) {
  config.validate();
  const double f = cpu_f_norm(config);
  const double thr = static_cast<double>(config.threads) /
                     static_cast<double>(hw::kCpuCores);
  const double g = gpu_f_norm(config);
  const double scatter =
      config.mapping == hw::CoreMapping::Scatter ? 1.0 : 0.0;
  return {1.0, f, thr, f * thr, scatter, g, f * g};
}

const std::vector<std::string>& perf_feature_names() {
  static const std::vector<std::string> names{
      "const", "cpu_f", "threads", "f_x_thr", "scatter", "gpu_f", "f_x_gpu_f",
  };
  return names;
}

std::vector<double> classification_features(const SamplePair& samples) {
  ACSEL_CHECK_MSG(samples.cpu.config.device == hw::Device::Cpu &&
                      samples.gpu.config.device == hw::Device::Gpu,
                  "sample pair devices are wrong");
  std::vector<double> features = samples.cpu.counters.normalized();

  features.push_back(samples.cpu.total_power_w() / kPowerScaleW);
  features.push_back(samples.gpu.total_power_w() / kPowerScaleW);
  // Device-affinity signals: how much faster (and hungrier) the GPU sample
  // was. Clipped so a single extreme kernel cannot dominate tree splits.
  const double perf_ratio =
      samples.gpu.performance() / samples.cpu.performance();
  features.push_back(std::clamp(perf_ratio, 0.0, 50.0) / 10.0);
  features.push_back(samples.gpu.total_power_w() /
                     samples.cpu.total_power_w());
  // Northbridge PMU view of the GPU run: DRAM pressure per reference
  // cycle, the memory-boundedness signal that survives device migration.
  features.push_back(samples.gpu.counters.dram_accesses /
                     std::max(samples.gpu.counters.reference_cycles, 1.0));
  return features;
}

const std::vector<std::string>& classification_feature_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all = soc::CounterBlock::feature_names();
    all.insert(all.end(), {"cpu_sample_power", "gpu_sample_power",
                           "gpu_cpu_perf_ratio", "gpu_cpu_power_ratio",
                           "gpu_dram_per_ref"});
    return all;
  }();
  return names;
}

}  // namespace acsel::core
