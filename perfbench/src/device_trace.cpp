#include "device_trace.hpp"

#include <cstring>

#include "stats.hpp"

namespace perfbench {

namespace dev = tvbf::device;

Tracer::Tracer() : origin_(Clock::now()), owner_(std::this_thread::get_id()) {}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint32_t Tracer::begin(std::string name, std::int64_t frame) {
  if (frame >= 0) frame_ = frame;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.frame = frame_;
  s.name = std::move(name);
  s.start_ns = ns(Clock::now());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (open_.empty()) frame_ = -1;
}

void Tracer::add(std::string name, Clock::time_point start,
                 Clock::time_point end) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.frame = frame_;
  s.name = std::move(name);
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  spans_.push_back(std::move(s));
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"name\": " + json_string(s.name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           json_number(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " + json_number(static_cast<double>(s.duration_ns()) / 1e3) +
           ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"frame\": " + std::to_string(s.frame) + "}}";
  }
  return out + "\n]}\n";
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size() + 1, 0.0);
  for (const Span& s : spans)
    child_ns[s.parent] += static_cast<double>(s.duration_ns());
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += static_cast<double>(s.duration_ns());
    t.self_ns += static_cast<double>(s.duration_ns()) - child_ns[s.id];
  }
  return totals;
}

void TimingDevice::execute(const dev::CommandList& list) {
  if (list.empty()) return;
  const Clock::time_point start = Clock::now();
  dev::cpu().submit(list);
  const Clock::time_point end = Clock::now();

  const std::size_t kind = list.front().index();
  Cells& c = cells_[kind];
  c.submits.fetch_add(1, std::memory_order_relaxed);
  c.macs.fetch_add(dev::list_macs(list), std::memory_order_relaxed);
  c.ns.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count(),
      std::memory_order_relaxed);
  Tracer* tracer = tracer_.load(std::memory_order_acquire);
  if (tracer != nullptr && tracer->on_owner_thread())
    tracer->add(std::string("device.") + dev::command_kind_name(kind), start,
                 end);
}

double TimingDevice::estimate_list(const dev::CommandList& list) const {
  return dev::cpu().estimate_seconds(list);
}

std::array<TimingDevice::KindTotals, dev::kNumCommandKinds>
TimingDevice::totals() const {
  std::array<KindTotals, dev::kNumCommandKinds> out{};
  for (std::size_t k = 0; k < dev::kNumCommandKinds; ++k) {
    out[k].submits = cells_[k].submits.load(std::memory_order_relaxed);
    out[k].macs = cells_[k].macs.load(std::memory_order_relaxed);
    out[k].seconds =
        static_cast<double>(cells_[k].ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  return out;
}

void TimingDevice::reset() {
  for (Cells& c : cells_) {
    c.submits.store(0, std::memory_order_relaxed);
    c.macs.store(0, std::memory_order_relaxed);
    c.ns.store(0, std::memory_order_relaxed);
  }
}

double add_device_layers(const TimingDevice& device, std::int64_t frames,
                         std::map<std::string, double>& layer) {
  const double nf = static_cast<double>(frames);
  double gemm_s = 0.0, gemm_macs = 0.0, macs = 0.0, submits = 0.0;
  const auto kinds = device.totals();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const char* name = dev::command_kind_name(k);
    macs += static_cast<double>(kinds[k].macs);
    submits += static_cast<double>(kinds[k].submits);
    // Every GEMM flavour (gemm, batched_gemm, gemm_tn, and any added later).
    if (std::strstr(name, "gemm") != nullptr) {
      gemm_s += kinds[k].seconds;
      gemm_macs += static_cast<double>(kinds[k].macs);
    }
    if (std::strcmp(name, "tof_gather") == 0)
      layer["device.tof_gather_ms"] = kinds[k].seconds * 1e3 / nf;
    if (std::strcmp(name, "das_apply") == 0)
      layer["device.das_apply_ms"] = kinds[k].seconds * 1e3 / nf;
  }
  layer["device.gemm_ms"] = gemm_s * 1e3 / nf;
  layer["device.gemm_gflops"] =
      gemm_s > 0.0 ? 2.0 * gemm_macs / gemm_s / 1e9 : 0.0;
  layer["device.submits_per_frame"] = submits / nf;
  layer["device.gmacs_per_frame"] = macs / nf / 1e9;
  return gemm_macs / nf;
}

}  // namespace perfbench
