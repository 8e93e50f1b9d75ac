// Spans recorded from the benchmark's side of the public API, and the
// timing device that adds one child span per device submit.
//
// The benchmark installs TimingDevice through PipelineConfig::device. It
// forwards execution and cost estimates to the CPU reference backend, so
// output and the batcher's quorum decisions are unchanged, and it keys its
// counters by device::command_kind_name, so command kinds added later show
// up without editing the benchmark.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "sources.hpp"

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 = no span
  std::uint32_t parent = 0;  ///< enclosing span, 0 at the root
  std::int64_t frame = -1;   ///< frame the span worked on (-1 = none)
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span log of one thread (the traced loop). Spans nest by
/// construction: begin() opens a child of the innermost open span.
class Tracer {
 public:
  Tracer();

  std::uint32_t begin(std::string name, std::int64_t frame = -1);
  void end(std::uint32_t id);
  /// Records an already-finished child of the innermost open span.
  void add(std::string name, Clock::time_point start, Clock::time_point end);

  /// True on the thread that created the tracer.
  bool on_owner_thread() const {
    return std::this_thread::get_id() == owner_;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON (ph "X"), with parent and frame as args.
  std::string chrome_json() const;

 private:
  std::int64_t ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::int64_t frame_ = -1;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t frame = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), frame)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Per-span-name totals over a span log.
struct SpanTotals {
  std::int64_t count = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed durations minus their children's
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

/// Device that times every submit and forwards it to device::cpu().
class TimingDevice : public tvbf::device::Device {
 public:
  struct KindTotals {
    std::int64_t submits = 0;
    std::int64_t macs = 0;
    double seconds = 0.0;
  };

  std::string name() const override { return "timing(cpu)"; }

  /// Submits made on the tracer's thread also become child spans named
  /// "device.<kind>". Null detaches.
  void attach(Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  /// Totals per command kind (index = Command variant index), since
  /// construction or the last reset(). A list is keyed by its first
  /// command's kind, as the device telemetry does.
  std::array<KindTotals, tvbf::device::kNumCommandKinds> totals() const;
  /// Zeroes the totals (call while nothing submits).
  void reset();

 protected:
  void execute(const tvbf::device::CommandList& list) override;
  double estimate_list(const tvbf::device::CommandList& list) const override;

 private:
  struct Cells {
    std::atomic<std::int64_t> submits{0};
    std::atomic<std::int64_t> macs{0};
    std::atomic<std::int64_t> ns{0};
  };
  std::array<Cells, tvbf::device::kNumCommandKinds> cells_;
  std::atomic<Tracer*> tracer_{nullptr};
};

/// Per-frame device layer metrics from `device`'s totals over `frames`
/// frames: device.tof_gather_ms, device.das_apply_ms, device.gemm_ms,
/// device.gemm_gflops (2 x GEMM MACs / GEMM time), device.submits_per_frame
/// and device.gmacs_per_frame. Returns the GEMM MACs per frame.
double add_device_layers(const TimingDevice& device, std::int64_t frames,
                         std::map<std::string, double>& layer);

}  // namespace perfbench
