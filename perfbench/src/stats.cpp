#include "stats.hpp"

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t samples_beyond(std::int64_t n, double q) {
  const auto at_or_below =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<std::int64_t>(0, n - at_or_below);
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0 || samples_beyond(n, q) < kMinBeyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double heap_in_use_mb() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

HeapSampler::HeapSampler()
    : thread_([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          if (armed_.load(std::memory_order_acquire)) {
            const double mb = heap_in_use_mb();
            if (mb > peak_mb_.load(std::memory_order_relaxed))
              peak_mb_.store(mb, std::memory_order_release);
            samples_.fetch_add(1, std::memory_order_release);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

HeapSampler::~HeapSampler() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void RunResult::add_e2e(std::string name, double value, std::string unit,
                        std::int64_t samples) {
  end_to_end.push_back({std::move(name), value, std::move(unit), samples});
}

void RunResult::add_layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit), 0});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string sample_counts_json(const RunResult& result) {
  std::string out = "{";
  for (std::size_t i = 0; i < result.end_to_end.size(); ++i) {
    const Metric& m = result.end_to_end[i];
    out += (i > 0 ? ", " : "") + json_string(m.name) + ": " +
           std::to_string(m.samples);
  }
  return out + "}";
}

std::string result_line(const RunResult& result, bool trace) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
