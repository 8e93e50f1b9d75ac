// Frame-graph trace capture: a fixed-capacity lock-free buffer of
// begin/end spans exported as Chrome trace_event JSON (load trace.json at
// chrome://tracing or https://ui.perfetto.dev).
//
// Capture is off by default and costs one relaxed load per span while off.
// trace_start() arms the process-wide buffer (allocated once, reused),
// spans recorded by ScopedSpan / trace_record() claim slots with a single
// fetch_add — when the buffer fills further spans are counted as dropped,
// never blocked — and trace_stop() disarms it. Export while armed is safe
// (a live /dump), and so is clear() (dump-then-rearm): every slot is a
// per-slot seqlock over all-atomic fields stamped with a process-unique
// claim, so a straggling pre-clear writer colliding with a fresh one is
// detected by the version check and the slot skipped, not raced.
//
// Frame lineage: every span additionally carries a flow id — either the
// calling thread's ambient ScopedFlow or one passed explicitly — and the
// export emits Chrome flow events (ph "s"/"t"/"f" sharing one id) binding
// all spans of a frame into a connected chain, so one frame's path across
// producer, graph nodes and sink renders as arrows in about:tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

namespace tvbf::telemetry {

/// Fixed-capacity span buffer. All methods are safe to call concurrently;
/// record() is wait-free (two fetch_adds, relaxed payload stores, one
/// release publish).
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  void record(const char* name, std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end,
              std::uint64_t flow = 0);

  std::size_t capacity() const { return capacity_; }
  /// Completed (published) events; may trail briefly behind claims while
  /// writers are mid-record.
  std::size_t size() const;
  std::size_t dropped() const;
  void clear();

  /// Chrome trace_event JSON: {"traceEvents": [{"ph": "X", ...}, ...]}.
  /// Timestamps are µs relative to the earliest recorded span. Spans
  /// tagged with a flow id (two or more per id) additionally emit flow
  /// events — "s" from the earliest span, "t" through the middles, "f"
  /// (binding "e", enclosing) at the latest — so each frame renders as
  /// one connected chain.
  std::string to_chrome_json() const;

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

 private:
  /// Every payload field is an atomic (name packed into words): a reader
  /// racing a writer performs no non-atomic access, and the version check
  /// discards slots that changed under the copy.
  struct Event {
    /// Seqlock: 0 = never written; odd = writer inside; even = published.
    /// Stamps derive from a process-unique claim counter that clear() does
    /// NOT reset, so a pre-clear straggler and a post-clear writer on the
    /// same slot can never share a version value.
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::int64_t> begin_ns{0};
    std::atomic<std::int64_t> dur_ns{0};
    std::atomic<std::uint64_t> flow{0};  ///< lineage id; 0 = no frame
    std::atomic<std::uint32_t> tid{0};
    // Name is copied (truncated) into the slot: node names are owned by
    // graphs that may be destroyed before export. 47 chars + NUL.
    std::atomic<std::uint64_t> name[6] = {};
  };

  /// One published event, copied out of a slot. Internal to the readers.
  struct Snap {
    char name[49];
    std::int64_t begin_ns;
    std::int64_t dur_ns;
    std::uint64_t flow;
    std::uint32_t tid;
  };

  bool read_slot(const Event& e, Snap& out) const;

  std::size_t capacity_;
  std::unique_ptr<Event[]> events_;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::uint64_t> stamps_{0};  ///< never reset; see Event::version
  std::atomic<std::int64_t> drops_{0};
};

/// True while the process-wide trace buffer is armed (relaxed load).
bool trace_active();

/// Arms the process-wide buffer, clearing any previous capture. The
/// buffer is allocated on first use with `capacity` slots and reused by
/// later captures (a larger later `capacity` does not grow it).
void trace_start(std::size_t capacity = 1 << 16);

/// Disarms capture. Call before exporting.
void trace_stop();

/// Records one span into the armed process-wide buffer, tagged with the
/// calling thread's ambient flow (see ScopedFlow); no-op while disarmed.
void trace_record(const char* name,
                  std::chrono::steady_clock::time_point begin,
                  std::chrono::steady_clock::time_point end);

/// Records one span tagged with an explicit flow id — for work done on
/// behalf of a frame from outside its ambient scope (e.g. the server's
/// producer thread recording a frame's acquisition).
void trace_record_flow(const char* name,
                       std::chrono::steady_clock::time_point begin,
                       std::chrono::steady_clock::time_point end,
                       std::uint64_t flow);

/// Exports the process-wide buffer as Chrome trace JSON (empty trace
/// object when nothing was captured).
std::string trace_export_json();

/// Spans dropped by the process-wide buffer since the last trace_start().
std::int64_t trace_dropped();

// ---------------------------------------------------------------------------
// Frame lineage

/// Mints a process-unique, nonzero lineage id (one per frame, at the
/// source). One relaxed fetch_add; ids are never reused in a process.
std::uint64_t next_flow_id();

/// The calling thread's ambient lineage id (0 = none). Spans recorded
/// while a flow is installed — including ScopedSpan destructors — carry it.
std::uint64_t current_flow();

/// RAII: installs `flow` as the calling thread's ambient lineage id and
/// restores the previous one on destruction. Install around each unit of
/// per-frame work (a graph node body, a sink write) so every span recorded
/// inside joins that frame's chain.
class ScopedFlow {
 public:
  explicit ScopedFlow(std::uint64_t flow);
  ~ScopedFlow();
  ScopedFlow(const ScopedFlow&) = delete;
  ScopedFlow& operator=(const ScopedFlow&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace tvbf::telemetry
