// Stall watchdog: a monitor thread that notices when the serving stack has
// work but stops making progress, and says why.
//
// Progress is counter advancement (graph.nodes_executed + serve.frames);
// pending work is gauge level (graph.ready_queue + serve.in_flight) or the
// test-only pending_override. A stall is "pending work and no progress for
// stall_s": the watchdog then assembles a StallReport — last per-thread
// activity stamps with ages and queue levels —
// records a kWatchdogTrip flight event, optionally writes the flight dump,
// and invokes on_trip. One trip per stall episode: the watchdog re-arms
// only after progress resumes, so a wedged server produces one diagnosis,
// not one per period.
//
// The monitor costs a handful of relaxed counter reads per period (default
// 250 ms) and holds no lock any worker path takes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/service_state.hpp"

namespace tvbf::obs {

/// Everything the watchdog knows at the moment it declares a stall.
struct StallReport {
  double stalled_s = 0.0;  ///< time since the last observed progress
  std::int64_t nodes_executed = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t ready_queue = 0;  ///< graph.ready_queue at trip time
  std::int64_t in_flight = 0;    ///< serve.in_flight at trip time
  bool pending_override = false;  ///< trip forced by the injection hook
  std::vector<ThreadNote> threads;

  /// Multi-line human-readable diagnosis.
  std::string describe() const;
};

/// Monitor-thread stall detector over the telemetry counters.
class Watchdog {
 public:
  struct Options {
    double period_s = 0.25;  ///< poll interval
    double stall_s = 2.0;    ///< pending-without-progress time that trips
    /// Written on every trip when non-empty (flight dump + trace export).
    std::string dump_path;
    /// Fault-injection hook: when set and returning true, the watchdog
    /// treats work as pending even with idle queues. Lets tests trip the
    /// watchdog without wedging a real executor.
    std::function<bool()> pending_override;
    /// Called from the monitor thread on each trip.
    std::function<void(const StallReport&)> on_trip;
  };

  explicit Watchdog(Options options);
  ~Watchdog();  ///< stops the monitor if still running

  void start();
  void stop();
  bool running() const;

  /// Trips since construction.
  std::int64_t trips() const;

  /// The report from the most recent trip (empty report when trips() == 0).
  StallReport last_report() const;

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tvbf::obs
