// The benchmark's workloads. Each runs in its own process (one invocation
// of the perfbench binary) and fills a RunResult.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "beamform/beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "stats.hpp"
#include "us/grid.hpp"
#include "us/simulator.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;     ///< also run the traced pass (per-layer metrics)
  std::string out_dir;    ///< where the span log is written ("" = nowhere)
};

/// Beamformer families the workloads run.
enum class Kind { kDas, kVbf, kQvbf };

/// Builds a beamformer the way a cold start does: DAS from the probe,
/// float Tiny-VBF around the model, Hybrid-2 by quantizing the model's
/// weights (QuantScheme::hybrid2, the scheme the paper deploys).
std::shared_ptr<const tvbf::bf::Beamformer> build_beamformer(
    Kind kind, const tvbf::us::Probe& probe,
    const std::shared_ptr<const tvbf::models::TinyVbf>& model);

/// Median over three cold PlanCache::get_for calls [ms]. Clears the cache.
double cold_plan_build_ms(const tvbf::us::Acquisition& acq,
                          const tvbf::us::ImagingGrid& grid);

/// das_stream, vbf_stream, qvbf_stream: one closed-loop rt::Pipeline.
RunResult run_solo(const Options& options);

/// scanner_mix: one serve::Server, 2 DAS + 2 Tiny-VBF open-loop sessions.
RunResult run_scanner_mix(const Options& options);

/// Appends every per-layer metric, in a fixed order, from `values`.
/// Missing names read 0, so every workload's traced run has the same keys.
void add_per_layer(RunResult& result,
                   const std::map<std::string, double>& values);

}  // namespace perfbench
