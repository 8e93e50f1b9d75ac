// Solo workloads: das_stream, vbf_stream and qvbf_stream.
//
// Untimed set-up simulates the replayed acquisitions, draws the Tiny-VBF
// weights and computes one one-shot reference image per acquisition. Then
// the run cold-starts the pipeline several times (setup_s is their median);
// the last cold start keeps running: warm-up frames, then the timed window.
// With --trace 1 a second, traced pass steps one rt::FrameProcessor over the
// same frames with the timing device installed.
#include <fstream>
#include <stdexcept>

#include "device_trace.hpp"
#include "fingerprint.hpp"
#include "inputs.hpp"
#include "runtime/pipeline.hpp"
#include "sources.hpp"
#include "us/plan_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace tv = tvbf;

namespace {

struct SoloSpec {
  Kind kind;
  int cold_starts;    ///< samples behind setup_s
  int warmup;         ///< frames after the first image, before the window
  const char* span;   ///< name of the traced beamform span
};

SoloSpec solo_spec(const std::string& workload) {
  if (workload == "das_stream") return {Kind::kDas, 7, 5, "beamform.das"};
  if (workload == "vbf_stream") return {Kind::kVbf, 7, 5, "models.forward"};
  if (workload == "qvbf_stream") return {Kind::kQvbf, 5, 2, "quant.forward"};
  throw std::invalid_argument("unknown solo workload: " + workload);
}

/// Checks every delivered image against its acquisition's one-shot
/// reference, and keeps the first untraced image per acquisition for the
/// traced pass's bit-identity check.
struct OutputCheck {
  const std::vector<tv::Tensor>& references;
  std::vector<tv::Tensor> untraced;
  std::int64_t checked = 0;
  std::int64_t mismatched = 0;
  std::int64_t device_mismatched = 0;
  float worst_db = 0.0f;

  explicit OutputCheck(const std::vector<tv::Tensor>& refs)
      : references(refs), untraced(refs.size()) {}

  void untraced_frame(std::int64_t index, const tv::Tensor& db) {
    const std::size_t a = static_cast<std::size_t>(index) % references.size();
    reference(a, db);
    if (untraced[a].size() == 0) untraced[a] = db;
  }

  void traced_frame(std::int64_t index, const tv::Tensor& db) {
    const std::size_t a = static_cast<std::size_t>(index) % references.size();
    reference(a, db);
    if (untraced[a].size() != 0 && !bit_equal(untraced[a], db))
      ++device_mismatched;
  }

 private:
  void reference(std::size_t a, const tv::Tensor& db) {
    ++checked;
    const float d = max_abs_diff(db, references[a]);
    if (!(d <= worst_db)) worst_db = d;
    if (!(d <= kReferenceToleranceDb)) ++mismatched;
  }
};

struct TimedWindow {
  std::vector<double> latency_ms;
  std::int64_t frames = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t lost = 0;
  tv::rt::PipelineReport report;
};

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  return out + "]";
}

}  // namespace

RunResult run_solo(const Options& opt) {
  const SoloSpec spec = solo_spec(opt.workload);

  // ---- untimed set-up: inputs, weights, references -------------------------
  const Scene scene = make_scene(opt.seed);
  std::shared_ptr<const tv::models::TinyVbf> model;
  if (spec.kind != Kind::kDas) model = make_weights(opt.seed);
  std::vector<tv::Tensor> references;
  {
    const auto bf = build_beamformer(spec.kind, scene.probe, model);
    for (const auto& acq : scene.acquisitions)
      references.push_back(one_shot_bmode(acq, scene.grid, *bf));
  }
  OutputCheck check(references);
  tv::rt::PipelineConfig cfg;
  cfg.grid = scene.grid;
  // Replayed input costs nothing to acquire, so there is nothing for the
  // producer thread to overlap; with it on, its contention with the pool
  // split frame times into two modes that flipped between runs.
  cfg.overlap = false;

  // ---- cold starts; the last one runs on into the timed window -------------
  std::vector<double> setup_s;
  TimedWindow win;
  HeapSampler heap;
  std::int64_t attempted = 0;
  for (int c = 0; c < spec.cold_starts; ++c) {
    const bool timed = c + 1 == spec.cold_starts;
    tv::us::PlanCache::instance().clear();
    release_free_memory();
    const Clock::time_point t0 = Clock::now();
    const auto bf = build_beamformer(spec.kind, scene.probe, model);
    auto source =
        std::make_shared<LoopSource>(scene.acquisitions, timed ? -1 : 1);
    tv::rt::Pipeline pipeline(source, bf, cfg);

    std::int64_t expected = 0;
    bool open = false, closed = false;
    Clock::time_point w0{};
    double cpu0 = 0.0;
    win.report = pipeline.run([&](const tv::rt::FrameOutput& out) {
      const Clock::time_point now = Clock::now();
      if (out.index == 0) setup_s.push_back(seconds_between(t0, now));
      if (out.index != expected) win.lost += out.index - expected;
      expected = out.index + 1;
      check.untraced_frame(out.index, out.db);
      if (!timed || closed) return;
      if (out.index == spec.warmup) {
        open = true;
        w0 = now;
        cpu0 = process_cpu_seconds();
        heap.arm(true);
      } else if (open) {
        win.latency_ms.push_back(
            seconds_between(source->handoff(out.index), now) * 1e3);
        ++win.frames;
        // The window lasts --seconds, and on slow workloads long enough
        // for a p50 (kMinBeyond frames beyond it).
        if (seconds_between(w0, now) >= opt.seconds &&
            win.frames >= 2 * kMinBeyond) {
          closed = true;
          heap.arm(false);
          win.wall_s = seconds_between(w0, now);
          win.cpu_s = process_cpu_seconds() - cpu0;
          source->stop();
        }
      }
    });
    attempted += source->produced();
    win.lost += source->produced() - expected;
  }

  RunResult result;
  const auto p50 = percentile(win.latency_ms, 0.5);
  const auto p90 = percentile(win.latency_ms, 0.9);
  if (!p50)
    throw std::runtime_error(
        "too few frames in the timed window for a p50: raise --seconds");
  const double fps = static_cast<double>(win.frames) / win.wall_s;
  const double cpu_ms_per_frame =
      win.cpu_s * 1e3 / static_cast<double>(win.frames);
  const auto n = static_cast<std::int64_t>(win.latency_ms.size());
  result.add_e2e("fps", fps, "1/s", win.frames);
  result.add_e2e("latency_ms_p50", *p50, "ms", n);
  result.add_e2e("cpu_ms_per_frame", cpu_ms_per_frame, "ms", win.frames);
  result.add_e2e("setup_s", median(setup_s), "s",
                 static_cast<std::int64_t>(setup_s.size()));

  // ---- traced pass ---------------------------------------------------------
  std::map<std::string, double> layer;
  std::string trace_details;
  if (opt.trace) {
    auto device = std::make_shared<TimingDevice>();
    tv::rt::PipelineConfig traced_cfg = cfg;
    traced_cfg.device = device;
    const auto bf = build_beamformer(spec.kind, scene.probe, model);
    tv::rt::FrameProcessor proc(bf, traced_cfg);
    LoopSource source(scene.acquisitions, -1);
    tv::rt::Frame frame;
    for (int w = 0; w < spec.warmup; ++w) {
      source.next(frame);
      check.traced_frame(frame.index, proc.process(frame).db);
    }
    Tracer tracer;
    device->reset();
    device->attach(&tracer);
    std::int64_t frames = 0;
    const Clock::time_point t0 = Clock::now();
    double wall_s = 0.0;
    while (wall_s < opt.seconds) {
      {
        ScopedSpan root(tracer, "frame", source.produced());
        {
          ScopedSpan s(tracer, "source");
          source.next(frame);
        }
        {
          ScopedSpan s(tracer, "us.tof");
          proc.prepare(frame);
          for (std::size_t a = 0; a < proc.num_angles(); ++a)
            proc.apply_tof_angle(frame, a);
        }
        {
          ScopedSpan s(tracer, "compound");
          proc.compound();
        }
        {
          ScopedSpan s(tracer, spec.span);
          proc.beamform();
        }
        const std::uint32_t post = tracer.begin("dsp.post");
        const tv::rt::FrameOutput out = proc.finish(frame);
        tracer.end(post);
        ScopedSpan s(tracer, "bench.check");
        check.traced_frame(frame.index, out.db);
      }
      ++frames;
      wall_s = seconds_between(t0, Clock::now());
    }
    device->attach(nullptr);
    attempted += source.produced();

    const auto totals = span_totals(tracer.spans());
    const auto per_frame_ms = [&](const std::string& name, bool self) {
      const auto it = totals.find(name);
      if (it == totals.end()) return 0.0;
      return (self ? it->second.self_ns : it->second.total_ns) /
             static_cast<double>(frames) / 1e6;
    };
    const double gemm_macs = add_device_layers(*device, frames, layer);
    const double nf = static_cast<double>(frames);
    const double traced_ms_per_frame = wall_s * 1e3 / nf;
    const double stage_sum_ms =
        per_frame_ms("us.tof", false) + per_frame_ms("compound", false) +
        per_frame_ms(spec.span, false) + per_frame_ms("dsp.post", false);
    double attributed_ms = 0.0;
    for (const auto& [name, t] : totals)
      if (name != "frame") attributed_ms += t.self_ns / nf / 1e6;

    layer["us.tof_ms"] = per_frame_ms("us.tof", false);
    layer["beamform.das_ms"] = per_frame_ms("beamform.das", false);
    layer["models.forward_ms"] = per_frame_ms("models.forward", false);
    layer["models.unattributed_ms"] = per_frame_ms("models.forward", true);
    layer["quant.forward_ms"] = per_frame_ms("quant.forward", false);
    layer["quant.unattributed_ms"] = per_frame_ms("quant.forward", true);
    layer["dsp.post_ms"] = per_frame_ms("dsp.post", false);
    layer["runtime.orchestration_ms"] = 1e3 / fps - stage_sum_ms;
    layer["runtime.cores_busy"] = win.cpu_s / win.wall_s;
    layer["trace.overhead_ratio"] = (nf / wall_s) / fps;
    layer["trace.attributed_share"] = attributed_ms / traced_ms_per_frame;

    trace_details = ", \"traced\": {\"frames\": " + std::to_string(frames) +
                    ", \"ms_per_frame\": " + json_number(traced_ms_per_frame) +
                    ", \"stage_sum_ms\": " + json_number(stage_sum_ms) +
                    ", \"device_mismatched_frames\": " +
                    std::to_string(check.device_mismatched);
    if (spec.kind != Kind::kDas)
      trace_details += ", \"tiny_vbf_gops_per_frame\": " +
                       json_number(2.0 * gemm_macs / 1e9) +
                       ", \"paper_gops_per_frame\": 0.34";
    trace_details += "}";
    if (!opt.out_dir.empty()) {
      std::ofstream(opt.out_dir + "/spans_" + opt.workload + "_seed" +
                    std::to_string(opt.seed) + ".json")
          << tracer.chrome_json();
    }
  }
  layer["us.plan_cache_hit_ratio"] =
      static_cast<double>(win.report.plan_cache_hits) /
      static_cast<double>(win.report.plan_cache_hits +
                          win.report.plan_cache_misses);
  if (opt.trace)
    layer["us.plan_build_ms"] =
        cold_plan_build_ms(scene.acquisitions.front(), scene.grid);
  add_per_layer(result, layer);

  result.add_e2e("peak_heap_mb", heap.peak_mb(), "MiB", heap.samples());

  result.attempted = attempted;
  result.failed = check.mismatched + check.device_mismatched + win.lost;
  result.correct = result.failed == 0;

  std::string d = "\"workload\": " + json_string(opt.workload);
  d += ", \"seed\": " + std::to_string(opt.seed);
  d += ", \"host\": " + fingerprint_json();
  d += ", \"frames_offered\": " + std::to_string(win.frames + win.lost);
  d += ", \"frames_failed\": " + std::to_string(result.failed);
  d += ", \"frames_checked\": " + std::to_string(check.checked);
  d += ", \"worst_reference_diff_db\": " +
       json_number(static_cast<double>(check.worst_db));
  d += ", \"process_peak_rss_mb\": " + json_number(process_peak_rss_mb());
  d += ", \"latency_frames\": " + std::to_string(n);
  d += ", \"beyond_p50\": " + std::to_string(samples_beyond(n, 0.5));
  d += ", \"beyond_p90\": " + std::to_string(samples_beyond(n, 0.9));
  d += ", \"latency_ms_p90\": " + (p90 ? json_number(*p90) : "null");
  d += ", \"setup_samples_s\": " + number_list(setup_s);
  if (model)
    d += ", \"tiny_vbf_model_gops_per_frame\": " +
         json_number(static_cast<double>(model->ops_per_frame(scene.grid.nz)) / 1e9);
  d += trace_details;
  result.details = d;
  return result;
}

}  // namespace perfbench
