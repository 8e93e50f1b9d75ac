#include "sources.hpp"

#include <cmath>
#include <thread>

namespace perfbench {

namespace {

void fill(tvbf::rt::Frame& frame,
          const std::vector<tvbf::us::Acquisition>& acquisitions,
          std::int64_t index) {
  frame.index = index;
  frame.time_s = 0.0;
  frame.trace_id = 0;
  frame.acq = acquisitions[static_cast<std::size_t>(index) %
                           acquisitions.size()];
  frame.extra.clear();
}

}  // namespace

LoopSource::LoopSource(const std::vector<tvbf::us::Acquisition>& acquisitions,
                       std::int64_t max_frames)
    : acquisitions_(acquisitions), max_frames_(max_frames) {}

const tvbf::us::Probe& LoopSource::probe() const {
  return acquisitions_.front().probe;
}

std::int64_t LoopSource::num_frames() const {
  return max_frames_ >= 0 ? max_frames_ : produced();
}

bool LoopSource::next(tvbf::rt::Frame& frame) {
  if (stop_.load(std::memory_order_acquire)) return false;
  const std::int64_t k = produced();
  if (max_frames_ >= 0 && k >= max_frames_) return false;
  fill(frame, acquisitions_, k);
  const std::lock_guard<std::mutex> lock(mu_);
  handoff_.push_back(Clock::now());
  return true;
}

void LoopSource::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  handoff_.clear();
}

Clock::time_point LoopSource::handoff(std::int64_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return handoff_.at(static_cast<std::size_t>(index));
}

std::int64_t LoopSource::produced() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(handoff_.size());
}

void Epoch::set(Clock::time_point t) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!t_) t_ = t;
  }
  cv_.notify_all();
}

Clock::time_point Epoch::wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return t_.has_value(); });
  return *t_;
}

std::optional<Clock::time_point> Epoch::get() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return t_;
}

std::int64_t PaceSchedule::window_frames() const {
  return static_cast<std::int64_t>(std::ceil(window_s / period_s - 1e-9));
}

PacedSource::PacedSource(const std::vector<tvbf::us::Acquisition>& acquisitions,
                         PaceSchedule schedule, const Epoch& epoch)
    : acquisitions_(acquisitions),
      schedule_(schedule),
      epoch_(epoch),
      timing_(static_cast<std::size_t>(schedule.total_frames())) {}

const tvbf::us::Probe& PacedSource::probe() const {
  return acquisitions_.front().probe;
}

bool PacedSource::next(tvbf::rt::Frame& frame) {
  const std::int64_t k = produced_;
  if (k >= schedule_.total_frames()) return false;
  Timing& t = timing_[static_cast<std::size_t>(k)];
  const Clock::time_point called = Clock::now();
  if (k == 0) {
    t.due = called;
  } else {
    const double due_s = schedule_.offset_s +
                         static_cast<double>(k - 1) * schedule_.period_s;
    t.due = epoch_.wait() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due_s));
    t.lateness_s = std::max(0.0, seconds_between(t.due, called));
    std::this_thread::sleep_until(t.due);
  }
  fill(frame, acquisitions_, k);
  t.handoff = Clock::now();
  ++produced_;
  return true;
}

}  // namespace perfbench
