#include "serve/session.hpp"

#include <utility>

#include "common/error.hpp"

namespace tvbf::serve {

const rt::StageStats& SessionReport::stage(const std::string& name) const {
  for (const auto& s : stages)
    if (s.name == name) return s;
  throw InvalidArgument("no session stage named '" + name + "'");
}

Session::Session(int id, SessionConfig config)
    : frame_latency(telemetry::Registry::instance().histogram(
          "serve.session." + std::to_string(id) + ".frame_s")),
      id_(id),
      config_(std::move(config)),
      processor_(config_.beamformer, config_.pipeline) {
  TVBF_REQUIRE(config_.source != nullptr, "session needs a frame source");
}

SessionReport Session::report() const {
  SessionReport r;
  r.id = id_;
  r.source = config_.source->name();
  r.beamformer = config_.beamformer->name();
  r.frames = frames;
  r.dropped = dropped;
  r.stages = {source_stats, tof_stats, compound_stats, beamform_stats,
              post_stats, sink_stats};
  return r;
}

}  // namespace tvbf::serve
