// Sample statistics, process resource clocks and the result JSON of one
// benchmark run.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie beyond a percentile before it is
/// reported: a tail estimate from fewer samples flips between runs.
inline constexpr std::int64_t kMinBeyond = 10;

/// Samples that lie strictly beyond the q-quantile of n samples
/// (q in [0, 1)): n - ceil(q * n).
std::int64_t samples_beyond(std::int64_t n, double q);

/// The q-quantile of `values` (linear interpolation between closest ranks),
/// or nullopt when fewer than kMinBeyond samples lie beyond it.
std::optional<double> percentile(std::vector<double> values, double q);

/// Median of `values` (no sample-count rule); 0 for an empty set.
double median(std::vector<double> values);

/// Process user+system CPU seconds (getrusage RUSAGE_SELF).
double process_cpu_seconds();

/// High-water resident set of the process in MiB (ru_maxrss).
double process_peak_rss_mb();

/// Heap bytes in use right now, in MiB: allocated chunks of every malloc
/// arena plus mmapped chunks (glibc mallinfo2; 0 elsewhere).
double heap_in_use_mb();

/// Samples heap_in_use_mb() every 20 ms on a background thread while armed
/// and keeps the largest value: the live-memory high-water of a timed
/// window. The resident set is not used because glibc keeps freed chunks
/// resident on whichever thread's arena allocated them, so the same run
/// read 107 or 131 MiB (das_stream) and 650-980 MiB (scanner_mix).
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();  ///< stops and joins the thread
  void arm(bool on) { armed_.store(on, std::memory_order_release); }
  double peak_mb() const { return peak_mb_.load(std::memory_order_acquire); }
  std::int64_t samples() const {
    return samples_.load(std::memory_order_acquire);
  }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> samples_{0};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
};

/// Returns free heap pages of every malloc arena to the OS (glibc
/// malloc_trim; no-op elsewhere). Called between cold starts so each one
/// begins like a fresh process rather than on the previous instance's
/// freed buffers.
void release_free_memory();

/// One reported metric: value, unit and the samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Everything one run reports. `end_to_end` / `per_layer` go on the final
/// line (which set depends on --trace); `details` (a JSON object body
/// without braces) is printed on the line before it.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string details;

  void add_e2e(std::string name, double value, std::string unit,
               std::int64_t samples);
  void add_layer(std::string name, double value, std::string unit);
};

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const RunResult& result, bool trace);

/// {"<end-to-end metric>": samples behind it, ...}.
std::string sample_counts_json(const RunResult& result);

/// JSON number with every significant digit (non-finite values print 0).
std::string json_number(double v);
/// JSON string literal with quotes and escapes.
std::string json_string(const std::string& s);

}  // namespace perfbench
