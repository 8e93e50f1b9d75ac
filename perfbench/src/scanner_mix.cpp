// scanner_mix: one serve::Server with default ServerConfig serving 2 DAS
// sessions and 2 float Tiny-VBF sessions that share one model, in an open
// loop. Each session's PacedSource releases frames on a fixed schedule at
// about half of that class's measured in-mix capacity; latency runs from
// each frame's due time to its delivery at the sink.
//
// setup_s is the median over cold starts of the time until every session
// has delivered its first image. The last cold start is the timed server:
// its first images start the paced schedule (the shared Epoch), a warm-up
// of kWarmupS follows, then the timed window.
#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "device_trace.hpp"
#include "fingerprint.hpp"
#include "inputs.hpp"
#include "runtime/pipeline.hpp"
#include "serve/server.hpp"
#include "sources.hpp"
#include "us/plan_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace tv = tvbf;

namespace {

// Offered load per session. In-mix capacity, measured by offering the
// classes 2:1 far above capacity on a 4-core Xeon @ 2.1 GHz (Release, AVX2
// kernels), was 26.5 frames/s in total: ~8.8 frames/s per DAS session and
// ~4.4 per Tiny-VBF session. Each class is offered half of that.
constexpr double kDasRateHz = 4.0;
constexpr double kVbfRateHz = 2.0;
constexpr int kDasSessions = 2;
constexpr int kVbfSessions = 2;
constexpr int kColdStarts = 5;
constexpr double kWarmupS = 1.0;

struct SessionSpec {
  Kind kind;
  double period_s;
  double offset_s;
};

std::vector<SessionSpec> session_specs() {
  std::vector<SessionSpec> out;
  for (int i = 0; i < kDasSessions; ++i)
    out.push_back({Kind::kDas, 1.0 / kDasRateHz,
                   (0.5 * i / kDasSessions) / kDasRateHz});
  // Tiny-VBF sessions are triggered together, so their frames can stack.
  for (int i = 0; i < kVbfSessions; ++i)
    out.push_back({Kind::kVbf, 1.0 / kVbfRateHz, 0.25 / kVbfRateHz});
  return out;
}

PaceSchedule schedule_for(const SessionSpec& s, double window_s) {
  PaceSchedule p;
  p.period_s = s.period_s;
  p.offset_s = s.offset_s;
  p.warmup = static_cast<std::int64_t>(std::ceil(kWarmupS / s.period_s));
  p.window_s = window_s;
  return p;
}

struct Inputs {
  Scene scene;
  std::shared_ptr<const tv::models::TinyVbf> model;
  /// Solo-pipeline B-mode per class and acquisition: served output must
  /// equal it bit for bit.
  std::vector<tv::Tensor> solo_das, solo_vbf;
  std::int64_t solo_mismatched = 0;
};

/// What one session of one server run saw.
struct SessionRecord {
  std::shared_ptr<PacedSource> paced;  ///< null for cold-start-only runs
  std::int64_t mismatched = 0;
  std::int64_t lost = 0;
  std::int64_t expected = 0;
  std::int64_t window_frames = 0;
  std::int64_t deadline_misses = 0;
  std::vector<double> latency_ms;    ///< window frames, from due time
  std::vector<double> lateness_ms;   ///< window frames
  Clock::time_point last_window_delivery{};
};

struct MixRun {
  std::vector<SessionRecord> sessions;
  tv::serve::ServerReport report;
  double setup_s = 0.0;
  double cpu_s = 0.0;
  double window_wall_s = 0.0;
  double heap_peak_mb = 0.0;  ///< live-heap high-water over the window
  std::int64_t heap_samples = 0;
  std::int64_t window_frames = 0;  ///< delivered, across sessions
  std::int64_t offered = 0;        ///< window frames, across sessions
  std::int64_t failed = 0;
  std::int64_t attempted = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in{make_scene(seed), make_weights(seed), {}, {}, 0};
  tv::rt::PipelineConfig cfg;
  cfg.grid = in.scene.grid;
  const std::int64_t n =
      static_cast<std::int64_t>(in.scene.acquisitions.size());
  for (const Kind kind : {Kind::kDas, Kind::kVbf}) {
    const auto bf = build_beamformer(kind, in.scene.probe, in.model);
    auto& solo = kind == Kind::kDas ? in.solo_das : in.solo_vbf;
    tv::rt::Pipeline pipeline(
        std::make_shared<LoopSource>(in.scene.acquisitions, n), bf, cfg);
    pipeline.run([&](const tv::rt::FrameOutput& out) { solo.push_back(out.db); });
    for (std::int64_t a = 0; a < n; ++a) {
      const auto& acq = in.scene.acquisitions[static_cast<std::size_t>(a)];
      if (!(max_abs_diff(solo[static_cast<std::size_t>(a)],
                         one_shot_bmode(acq, in.scene.grid, *bf)) <=
            kReferenceToleranceDb))
        ++in.solo_mismatched;
    }
  }
  return in;
}

/// One server instance from a cold PlanCache (when `cold`) to its last
/// frame. `window_s` <= 0 runs the cold start only (one frame per
/// session); otherwise sessions are paced and the window is measured.
MixRun run_server(const Inputs& in, double window_s, bool cold,
                  const std::shared_ptr<tv::device::Device>& device) {
  const std::vector<SessionSpec> specs = session_specs();
  const bool paced = window_s > 0.0;
  MixRun run;
  run.sessions.resize(specs.size());
  Epoch epoch;
  std::mutex mu;
  std::size_t first_images = 0;

  if (cold) tv::us::PlanCache::instance().clear();
  release_free_memory();
  const Clock::time_point t0 = Clock::now();
  const auto das = build_beamformer(Kind::kDas, in.scene.probe, in.model);
  const auto vbf = build_beamformer(Kind::kVbf, in.scene.probe, in.model);
  tv::serve::Server server{tv::serve::ServerConfig{}};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionSpec& spec = specs[i];
    SessionRecord& rec = run.sessions[i];
    std::shared_ptr<tv::rt::FrameSource> source;
    if (paced) {
      rec.paced = std::make_shared<PacedSource>(
          in.scene.acquisitions, schedule_for(spec, window_s), epoch);
      source = rec.paced;
    } else {
      source = std::make_shared<LoopSource>(in.scene.acquisitions, 1);
    }
    const auto& solo = spec.kind == Kind::kDas ? in.solo_das : in.solo_vbf;
    tv::serve::SessionConfig sc;
    sc.source = source;
    sc.beamformer = spec.kind == Kind::kDas ? das : vbf;
    sc.pipeline.grid = in.scene.grid;
    sc.pipeline.device = device;
    sc.sink = [&, i, spec](const tv::rt::FrameOutput& out) {
      const Clock::time_point now = Clock::now();
      SessionRecord& r = run.sessions[i];
      if (out.index != r.expected) r.lost += out.index - r.expected;
      r.expected = out.index + 1;
      const bool ok = bit_equal(
          out.db, solo[static_cast<std::size_t>(out.index) % solo.size()]);
      if (!ok) ++r.mismatched;
      if (out.index == 0) {
        const std::lock_guard<std::mutex> lock(mu);
        if (++first_images == specs.size()) {
          run.setup_s = seconds_between(t0, now);
          epoch.set(now);
        }
      }
      if (r.paced && r.paced->in_window(out.index)) {
        const PacedSource::Timing& t = r.paced->timing(out.index);
        const double latency_s = seconds_between(t.due, now);
        r.latency_ms.push_back(latency_s * 1e3);
        r.lateness_ms.push_back(t.lateness_s * 1e3);
        r.last_window_delivery = now;
        if (!ok || latency_s > spec.period_s) ++r.deadline_misses;
      }
    };
    server.add_session(std::move(sc));
  }

  // CPU time and live-heap high-water over the common window
  // [epoch + kWarmupS, + window_s].
  HeapSampler heap;
  std::thread cpu_clock;
  double cpu0 = 0.0, cpu1 = 0.0;
  if (paced) {
    cpu_clock = std::thread([&] {
      const auto start =
          epoch.wait() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kWarmupS));
      std::this_thread::sleep_until(start);
      cpu0 = process_cpu_seconds();
      heap.arm(true);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(window_s)));
      cpu1 = process_cpu_seconds();
      heap.arm(false);
    });
  }
  try {
    run.report = server.run();
  } catch (...) {
    epoch.set(Clock::now());  // release the clock thread
    if (cpu_clock.joinable()) cpu_clock.join();
    throw;
  }
  if (cpu_clock.joinable()) cpu_clock.join();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SessionRecord& r = run.sessions[i];
    const std::int64_t produced =
        r.paced ? r.paced->num_frames() : std::int64_t{1};
    r.lost += produced - r.expected;
    run.attempted += produced;
    run.failed += r.mismatched + r.lost;
    if (!r.paced) continue;
    r.window_frames = static_cast<std::int64_t>(r.latency_ms.size());
    const std::int64_t offered = r.paced->schedule().window_frames();
    // A window frame that never arrived misses its deadline too.
    r.deadline_misses += offered - r.window_frames;
    run.offered += offered;
    run.window_frames += r.window_frames;
  }
  if (paced) {
    const Clock::time_point window_start =
        *epoch.get() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kWarmupS));
    Clock::time_point last = window_start;
    for (const SessionRecord& r : run.sessions)
      last = std::max(last, r.last_window_delivery);
    run.window_wall_s = seconds_between(window_start, last);
    run.cpu_s = cpu1 - cpu0;
    run.heap_peak_mb = heap.peak_mb();
    run.heap_samples = heap.samples();
  }
  return run;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

RunResult run_scanner_mix(const Options& opt) {
  const Inputs in = make_inputs(opt.seed);
  const std::vector<SessionSpec> specs = session_specs();

  std::vector<double> setup_s;
  std::int64_t attempted = 0, failed = in.solo_mismatched;
  for (int c = 0; c + 1 < kColdStarts; ++c) {
    const MixRun cold = run_server(in, 0.0, true, nullptr);
    setup_s.push_back(cold.setup_s);
    attempted += cold.attempted;
    failed += cold.failed;
  }
  const MixRun timed = run_server(in, opt.seconds, true, nullptr);
  setup_s.push_back(timed.setup_s);
  attempted += timed.attempted;
  failed += timed.failed;

  RunResult result;
  double worst_p50 = 0.0;
  std::optional<double> worst_p90 = 0.0;
  std::int64_t misses = 0, min_latency_frames = -1;
  for (const SessionRecord& r : timed.sessions) {
    const auto p50 = percentile(r.latency_ms, 0.5);
    if (!p50)
      throw std::runtime_error(
          "too few frames per session for a p50: raise --seconds");
    worst_p50 = std::max(worst_p50, *p50);
    const auto p90 = percentile(r.latency_ms, 0.9);
    worst_p90 = worst_p90 && p90 ? std::optional(std::max(*worst_p90, *p90))
                                 : std::nullopt;
    misses += r.deadline_misses;
    const auto n = static_cast<std::int64_t>(r.latency_ms.size());
    min_latency_frames =
        min_latency_frames < 0 ? n : std::min(min_latency_frames, n);
  }
  const double fps =
      static_cast<double>(timed.window_frames) / timed.window_wall_s;
  const double miss_share =
      static_cast<double>(misses) / static_cast<double>(timed.offered);
  result.add_e2e("fps", fps, "1/s", timed.window_frames);
  result.add_e2e("latency_ms_p50", worst_p50, "ms", min_latency_frames);
  result.add_e2e("cpu_ms_per_frame",
                 timed.cpu_s * 1e3 / static_cast<double>(timed.window_frames),
                 "ms", timed.window_frames);
  result.add_e2e("setup_s", median(setup_s), "s",
                 static_cast<std::int64_t>(setup_s.size()));

  std::map<std::string, double> layer;
  layer["us.plan_cache_hit_ratio"] =
      static_cast<double>(timed.report.plan_cache_hits) /
      static_cast<double>(timed.report.plan_cache_hits +
                          timed.report.plan_cache_misses);
  layer["serve.deadline_miss_share"] = miss_share;
  layer["runtime.cores_busy"] = timed.cpu_s / opt.seconds;
  std::string trace_details;
  if (opt.trace) {
    // Traced server: same schedule on a warm PlanCache, with the timing
    // device shared by every session.
    auto device = std::make_shared<TimingDevice>();
    const MixRun traced = run_server(in, opt.seconds, false, device);
    attempted += traced.attempted;
    failed += traced.failed;
    std::int64_t frames = 0;
    for (const auto& s : traced.report.sessions) frames += s.frames;
    const double nf = static_cast<double>(frames);
    add_device_layers(*device, frames, layer);

    // Stage means per class from the SessionReports, frame-weighted.
    double tof = 0.0, post = 0.0, das_bf = 0.0, vbf_bf = 0.0;
    std::int64_t das_frames = 0, vbf_frames = 0;
    double queue_wait = 0.0, lateness = 0.0;
    std::int64_t window_frames = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& rep = traced.report.sessions[i];
      tof += rep.stage("tof").total_s;
      post += rep.stage("postprocess").total_s;
      const double bf_mean = rep.stage("beamform").mean_s();
      if (specs[i].kind == Kind::kDas) {
        das_bf += rep.stage("beamform").total_s;
        das_frames += rep.frames;
      } else {
        vbf_bf += rep.stage("beamform").total_s;
        vbf_frames += rep.frames;
      }
      const double stage_sum_ms =
          (rep.stage("tof").mean_s() + rep.stage("compound").mean_s() +
           bf_mean + rep.stage("postprocess").mean_s() +
           rep.stage("sink").mean_s()) * 1e3;
      const SessionRecord& r = traced.sessions[i];
      const double w = static_cast<double>(r.latency_ms.size());
      queue_wait += (mean(r.latency_ms) - stage_sum_ms) * w;
      lateness += mean(r.lateness_ms) * w;
      window_frames += static_cast<std::int64_t>(r.latency_ms.size());
    }
    const double wf = static_cast<double>(window_frames);
    layer["us.tof_ms"] = tof * 1e3 / nf;
    layer["dsp.post_ms"] = post * 1e3 / nf;
    layer["serve.das_beamform_ms"] =
        das_frames > 0 ? das_bf * 1e3 / static_cast<double>(das_frames) : 0.0;
    layer["serve.vbf_beamform_ms"] =
        vbf_frames > 0 ? vbf_bf * 1e3 / static_cast<double>(vbf_frames) : 0.0;
    layer["serve.queue_wait_ms"] = queue_wait / wf;
    layer["serve.source_lateness_ms"] = lateness / wf;
    layer["serve.batch_mean"] = traced.report.batches.mean_batch();
    layer["serve.batch_forward_ms"] =
        traced.report.batches.batches > 0
            ? traced.report.batches.forward_s * 1e3 /
                  static_cast<double>(traced.report.batches.batches)
            : 0.0;
    layer["trace.overhead_ratio"] =
        (static_cast<double>(traced.window_frames) / traced.window_wall_s) / fps;
    layer["us.plan_build_ms"] =
        cold_plan_build_ms(in.scene.acquisitions.front(), in.scene.grid);
    trace_details = ", \"traced\": {\"frames\": " + std::to_string(frames) +
                    ", \"batches\": " +
                    std::to_string(traced.report.batches.batches) +
                    ", \"failed\": " + std::to_string(traced.failed) + "}";
  }
  add_per_layer(result, layer);
  result.add_e2e("peak_heap_mb", timed.heap_peak_mb, "MiB", timed.heap_samples);

  result.attempted = attempted;
  result.failed = failed;
  result.correct = failed == 0;

  std::string d = "\"workload\": \"scanner_mix\"";
  d += ", \"seed\": " + std::to_string(opt.seed);
  d += ", \"host\": " + fingerprint_json();
  d += ", \"sessions\": {\"das\": " + std::to_string(kDasSessions) +
       ", \"das_rate_hz\": " + json_number(kDasRateHz) +
       ", \"vbf\": " + std::to_string(kVbfSessions) +
       ", \"vbf_rate_hz\": " + json_number(kVbfRateHz) + "}";
  d += ", \"frames_offered\": " + std::to_string(timed.offered);
  d += ", \"frames_failed\": " + std::to_string(failed);
  d += ", \"process_peak_rss_mb\": " + json_number(process_peak_rss_mb());
  d += ", \"deadline_miss_share\": " + json_number(miss_share);
  d += ", \"session_p50_ms\": [";
  for (std::size_t i = 0; i < timed.sessions.size(); ++i)
    d += (i > 0 ? ", " : "") +
         json_number(percentile(timed.sessions[i].latency_ms, 0.5).value_or(0.0));
  d += "]";
  d += ", \"latency_frames_min_session\": " + std::to_string(min_latency_frames);
  d += ", \"beyond_p50\": " + std::to_string(samples_beyond(min_latency_frames, 0.5));
  d += ", \"latency_ms_p90_worst\": " +
       (worst_p90 ? json_number(*worst_p90) : std::string("null"));
  d += ", \"batches\": " + std::to_string(timed.report.batches.batches) +
       ", \"batch_mean\": " + json_number(timed.report.batches.mean_batch());
  d += trace_details;
  result.details = d;
  return result;
}

}  // namespace perfbench
