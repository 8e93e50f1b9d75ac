#include "workloads.hpp"

#include <utility>

#include "beamform/das.hpp"
#include "models/neural_beamformer.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "quant/scheme.hpp"
#include "sources.hpp"
#include "us/plan_cache.hpp"

namespace perfbench {

namespace tv = tvbf;

std::shared_ptr<const tv::bf::Beamformer> build_beamformer(
    Kind kind, const tv::us::Probe& probe,
    const std::shared_ptr<const tv::models::TinyVbf>& model) {
  switch (kind) {
    case Kind::kDas:
      return std::make_shared<tv::bf::DasBeamformer>(probe);
    case Kind::kVbf:
      return std::make_shared<tv::models::TinyVbfBeamformer>(model);
    case Kind::kQvbf:
      return std::make_shared<tv::quant::QuantizedVbfBeamformer>(
          std::make_shared<tv::quant::QuantizedTinyVbf>(
              *model, tv::quant::QuantScheme::hybrid2()));
  }
  return nullptr;
}

double cold_plan_build_ms(const tv::us::Acquisition& acq,
                          const tv::us::ImagingGrid& grid) {
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) {
    tv::us::PlanCache::instance().clear();
    const Clock::time_point t0 = Clock::now();
    const auto plan = tv::us::PlanCache::instance().get_for(acq, grid);
    samples.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(samples);
}

namespace {

const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"us.tof_ms", "ms"},
      {"device.tof_gather_ms", "ms"},
      {"us.plan_build_ms", "ms"},
      {"us.plan_cache_hit_ratio", "ratio"},
      {"beamform.das_ms", "ms"},
      {"device.das_apply_ms", "ms"},
      {"models.forward_ms", "ms"},
      {"device.gemm_ms", "ms"},
      {"device.gemm_gflops", "GFLOP/s"},
      {"models.unattributed_ms", "ms"},
      {"quant.forward_ms", "ms"},
      {"quant.unattributed_ms", "ms"},
      {"dsp.post_ms", "ms"},
      {"device.submits_per_frame", "count"},
      {"device.gmacs_per_frame", "GMAC"},
      {"runtime.orchestration_ms", "ms"},
      {"runtime.cores_busy", "cores"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.batch_mean", "frames"},
      {"serve.batch_forward_ms", "ms"},
      {"serve.das_beamform_ms", "ms"},
      {"serve.vbf_beamform_ms", "ms"},
      {"serve.source_lateness_ms", "ms"},
      {"serve.deadline_miss_share", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.attributed_share", "ratio"},
  };
  return table;
}

}  // namespace

void add_per_layer(RunResult& result,
                   const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : layer_table()) {
    const auto it = values.find(name);
    result.add_layer(name, it != values.end() ? it->second : 0.0, unit);
  }
}

}  // namespace perfbench
