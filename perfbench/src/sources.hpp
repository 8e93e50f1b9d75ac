// Frame sources the benchmark drives the program with. Both replay
// pre-simulated acquisitions (no simulation inside the timed loop) and
// timestamp every hand-off, so latency is measured from the moment the
// program receives a frame (closed loop) or the moment it was due (open
// loop).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/frame_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Closed-loop replay: hands out acquisition k % n as frame k, as fast as
/// the program asks, until `max_frames` or stop().
class LoopSource : public tvbf::rt::FrameSource {
 public:
  /// `acquisitions` must outlive the source. max_frames < 0 = until stop().
  LoopSource(const std::vector<tvbf::us::Acquisition>& acquisitions,
             std::int64_t max_frames);

  std::string name() const override { return "bench-loop"; }
  const tvbf::us::Probe& probe() const override;
  std::int64_t num_frames() const override;
  bool next(tvbf::rt::Frame& frame) override;
  void reset() override;

  /// Makes the next next() call return false (callable from any thread).
  void stop() { stop_.store(true, std::memory_order_release); }
  /// When frame `index` was handed to the program.
  Clock::time_point handoff(std::int64_t index) const;
  std::int64_t produced() const;

 private:
  const std::vector<tvbf::us::Acquisition>& acquisitions_;
  std::int64_t max_frames_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<Clock::time_point> handoff_;
};

/// A start signal shared by the sessions of one open-loop run: the paced
/// schedule begins once every session has delivered its first image.
class Epoch {
 public:
  void set(Clock::time_point t);
  Clock::time_point wait() const;
  std::optional<Clock::time_point> get() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::optional<Clock::time_point> t_;
};

/// Open-loop schedule of one session.
struct PaceSchedule {
  double period_s = 0.1;      ///< one frame every period
  double offset_s = 0.0;      ///< phase of this session within the period
  std::int64_t warmup = 0;    ///< paced frames before the timed window
  double window_s = 1.0;      ///< length of the timed window
  /// Frames due inside the window: ceil(window_s / period_s).
  std::int64_t window_frames() const;
  /// 1 unpaced cold-start frame + warm-up + window.
  std::int64_t total_frames() const { return 1 + warmup + window_frames(); }
};

/// Open-loop replay. Frame 0 is handed out at once (it ends the cold
/// start). Frame k >= 1 is due at epoch + offset + (k - 1) * period: next()
/// sleeps until then, and when the program asks late (backpressure) the
/// frame goes out at once and the delay is booked as lateness. Frames
/// 1 + warmup .. total_frames() - 1 are the timed window; after the last
/// one next() returns false.
class PacedSource : public tvbf::rt::FrameSource {
 public:
  struct Timing {
    Clock::time_point due{};
    Clock::time_point handoff{};
    double lateness_s = 0.0;  ///< max(0, next() call - due)
  };

  PacedSource(const std::vector<tvbf::us::Acquisition>& acquisitions,
              PaceSchedule schedule, const Epoch& epoch);

  std::string name() const override { return "bench-paced"; }
  const tvbf::us::Probe& probe() const override;
  std::int64_t num_frames() const override {
    return schedule_.total_frames();
  }
  bool next(tvbf::rt::Frame& frame) override;
  void reset() override { produced_ = 0; }

  const PaceSchedule& schedule() const { return schedule_; }
  bool in_window(std::int64_t index) const {
    return index >= 1 + schedule_.warmup && index < schedule_.total_frames();
  }
  /// Timing of frame `index`; valid once the program has received it.
  const Timing& timing(std::int64_t index) const {
    return timing_[static_cast<std::size_t>(index)];
  }

 private:
  const std::vector<tvbf::us::Acquisition>& acquisitions_;
  PaceSchedule schedule_;
  const Epoch& epoch_;
  std::int64_t produced_ = 0;
  std::vector<Timing> timing_;  ///< sized up front; slot k written once
};

}  // namespace perfbench
