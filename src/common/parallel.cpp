#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace tvbf {
namespace {

// parallel_for must not be re-entered from inside the pool: set on the
// top-level calling thread for the duration of a job, and permanently on
// worker threads.
thread_local bool in_parallel_region = false;

// Fair-share tag of jobs submitted from this thread (0 = untagged).
thread_local std::uint64_t current_job_tag = 0;

/// Long-lived pool: workers block on a condition variable between jobs.
/// A "job" is a shared chunked index range claimed via an atomic cursor.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t thread_count() const {
    return size_.load(std::memory_order_relaxed);
  }

  void resize(std::size_t n) {
    // Acquiring the job slot first makes resizing safe against an in-flight
    // job: the pool is only torn down between jobs.
    const SlotGuard slot(*this, current_job_tag);
    shutdown();
    start(n);
  }

  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t, std::size_t)>& fn,
           std::size_t grain) {
    // Serialize concurrent top-level callers: job_fn_/cursor_/pending_ are
    // one shared job slot, so without this two non-worker threads calling
    // parallel_for simultaneously would overwrite each other's job and
    // silently compute garbage. Admission is round-robin across job tags,
    // not arrival order — see acquire_slot().
    const SlotGuard slot(*this, current_job_tag);
    {
      std::lock_guard lock(mutex_);
      job_begin_ = begin;
      job_end_ = end;
      job_fn_ = &fn;
      job_grain_ = grain;
      cursor_.store(begin, std::memory_order_relaxed);
      pending_ = threads_.size();
      ++generation_;
      first_error_ = nullptr;
    }
    cv_.notify_all();
    work();  // calling thread participates
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  Pool() { start(std::max<std::size_t>(1, std::thread::hardware_concurrency())); }
  ~Pool() { shutdown(); }

  /// One waiting top-level caller of the job slot.
  struct Waiter {
    std::uint64_t tag = 0;
    bool admitted = false;
  };

  /// Scoped ownership of the pool's single job slot.
  class SlotGuard {
   public:
    SlotGuard(Pool& pool, std::uint64_t tag) : pool_(pool) {
      pool_.acquire_slot(tag);
    }
    ~SlotGuard() { pool_.release_slot(); }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;

   private:
    Pool& pool_;
  };

  void acquire_slot(std::uint64_t tag) {
    std::unique_lock lock(slot_mutex_);
    if (!slot_busy_ && slot_waiters_.empty()) {
      slot_busy_ = true;
      slot_last_tag_ = tag;
      return;
    }
    Waiter self{tag, false};
    slot_waiters_.push_back(&self);
    slot_cv_.wait(lock, [&] { return self.admitted; });
  }

  void release_slot() {
    std::lock_guard lock(slot_mutex_);
    if (slot_waiters_.empty()) {
      slot_busy_ = false;
      return;
    }
    // Round-robin across tags: admit the waiter whose tag is cyclically
    // next after the last admitted tag (a waiter with the same tag goes
    // last). Ties keep list order, i.e. FIFO within a tag.
    auto best = slot_waiters_.begin();
    std::uint64_t best_rank = std::numeric_limits<std::uint64_t>::max();
    for (auto it = slot_waiters_.begin(); it != slot_waiters_.end(); ++it) {
      const std::uint64_t distance = (*it)->tag - slot_last_tag_;  // wraps
      const std::uint64_t rank =
          distance == 0 ? std::numeric_limits<std::uint64_t>::max()
                        : distance - 1;
      if (rank < best_rank) {
        best_rank = rank;
        best = it;
      }
    }
    Waiter* next = *best;
    slot_waiters_.erase(best);
    slot_last_tag_ = next->tag;
    next->admitted = true;
    slot_cv_.notify_all();
  }

  void start(std::size_t n) {
    stop_ = false;
    const std::size_t workers = n > 0 ? n - 1 : 0;
    threads_.reserve(workers);
    // Seed each worker with the generation at spawn time (stable here:
    // callers hold the job slot, and generation_ only advances inside run()
    // under the same slot). A worker starting from literal 0 after a
    // resize would see the persisted generation as a phantom "new job",
    // run work() against whatever job state exists, and corrupt pending_.
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this, g = generation_] { worker_loop(g); });
    }
    size_.store(workers + 1, std::memory_order_relaxed);
  }

  void shutdown() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  void worker_loop(std::uint64_t seen) {
    // Workers are pool members for life: any parallel_for reached from a
    // job fn on this thread must degrade to serial inline execution, or it
    // would block on jobs_mutex_ (held by the very caller waiting on us).
    in_parallel_region = true;
    while (true) {
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      work();
      {
        std::lock_guard lock(mutex_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  void work() {
    const auto* fn = job_fn_;
    if (fn == nullptr) return;
    while (true) {
      const std::size_t chunk_begin =
          cursor_.fetch_add(job_grain_, std::memory_order_relaxed);
      if (chunk_begin >= job_end_) break;
      const std::size_t chunk_end = std::min(job_end_, chunk_begin + job_grain_);
      try {
        (*fn)(chunk_begin, chunk_end);
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
        cursor_.store(job_end_, std::memory_order_relaxed);  // abandon rest
      }
    }
  }

  std::vector<std::thread> threads_;
  /// Job-slot admission state: one job at a time, held for the full
  /// duration of run() and resize(), granted round-robin across tags.
  std::mutex slot_mutex_;
  std::condition_variable slot_cv_;
  std::vector<Waiter*> slot_waiters_;
  bool slot_busy_ = false;
  std::uint64_t slot_last_tag_ = 0;
  /// Pool size snapshot; thread_count() must not touch threads_ itself, or
  /// it would race with a concurrent resize's vector surgery.
  std::atomic<std::size_t> size_{1};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;

  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::size_t job_grain_ = 1;
  const std::function<void(std::size_t, std::size_t)>* job_fn_ = nullptr;
  std::atomic<std::size_t> cursor_{0};
  std::exception_ptr first_error_;
};

}  // namespace

std::size_t hardware_threads() {
  return Pool::instance().thread_count();
}

void set_job_tag(std::uint64_t tag) { current_job_tag = tag; }

std::uint64_t job_tag() { return current_job_tag; }

ScopedSerial::ScopedSerial() : previous_(in_parallel_region) {
  in_parallel_region = true;
}

ScopedSerial::~ScopedSerial() { in_parallel_region = previous_; }

void set_thread_count(std::size_t n) {
  // Resizing from inside a parallel_for body would self-deadlock: resize
  // blocks on the job slot held by the very run() waiting on this body.
  TVBF_REQUIRE(!in_parallel_region,
               "set_thread_count must not be called from inside a "
               "parallel_for body or pool worker");
  Pool::instance().resize(
      n == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
             : n);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t min_grain) {
  if (begin >= end) return;
  TVBF_REQUIRE(min_grain > 0, "parallel_for needs min_grain > 0");
  const std::size_t n = end - begin;
  const std::size_t threads = hardware_threads();
  if (in_parallel_region || threads <= 1 || n <= min_grain) {
    fn(begin, end);
    return;
  }
  // Aim for ~4 chunks per thread for load balance, floor at min_grain.
  const std::size_t grain =
      std::max(min_grain, n / (threads * 4) + ((n % (threads * 4)) != 0));
  in_parallel_region = true;
  try {
    Pool::instance().run(begin, end, fn, grain);
  } catch (...) {
    in_parallel_region = false;
    throw;
  }
  in_parallel_region = false;
}

void parallel_for_each(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t)>& fn,
                       std::size_t min_grain) {
  parallel_for(
      begin, end,
      [&fn](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) fn(i);
      },
      min_grain);
}

}  // namespace tvbf
