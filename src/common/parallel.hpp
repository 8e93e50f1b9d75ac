// Minimal work-sharing thread pool.
//
// The simulator, classical beamformers and matmul kernels are all
// embarrassingly parallel over rows/pixels; parallel_for chunks an index
// range across a process-wide pool. Exceptions thrown by workers are
// captured and rethrown on the calling thread (first one wins).
//
// The pool runs one job at a time; concurrent top-level callers queue for
// the job slot. Admission is fair-share by tag: each caller thread carries a
// job tag (set_job_tag), and the slot rotates round-robin across the tags of
// the waiting callers (FIFO within a tag). The serving layer tags pool work
// by session so no session can starve the others.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace tvbf {

/// Number of worker threads in the process-wide pool (>= 1).
std::size_t hardware_threads();

/// Overrides the pool size (test hook; 0 restores the hardware default).
/// Safe against in-flight jobs from other threads (the pool is resized
/// between jobs), but must not be called from inside a parallel_for body
/// on any thread — that throws InvalidArgument instead of deadlocking.
void set_thread_count(std::size_t n);

/// Sets this thread's fair-share job tag (thread-local; 0 = untagged).
/// Callers waiting for the pool's job slot are admitted round-robin across
/// distinct tags instead of in arrival order.
void set_job_tag(std::uint64_t tag);

/// This thread's current fair-share job tag.
std::uint64_t job_tag();

/// RAII guard marking the current thread as inside a parallel region: every
/// parallel_for issued while the guard is alive degrades to serial inline
/// execution instead of fanning out to the pool. Server workers use this to
/// process whole frames serially per thread, so concurrent sessions scale
/// across cores instead of contending for the single shared job slot.
class ScopedSerial {
 public:
  ScopedSerial();
  ~ScopedSerial();
  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;

 private:
  bool previous_;
};

/// Runs fn(begin..end) split into contiguous chunks across the pool.
/// Falls back to serial execution for small ranges or single-thread pools.
/// fn must be safe to invoke concurrently on disjoint ranges. Concurrent
/// top-level callers are serialized on the pool's single job slot (nested
/// calls from inside a parallel region still degrade to serial inline
/// execution).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t min_grain = 256);

/// Convenience wrapper calling fn(i) per index.
void parallel_for_each(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& fn,
                       std::size_t min_grain = 256);

}  // namespace tvbf
