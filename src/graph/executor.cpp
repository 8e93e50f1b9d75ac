#include "graph/executor.hpp"

#include <deque>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/service_state.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace tvbf::graph {

struct Executor::Impl {
  /// Per-launch readiness state. Queue entries keep the Run alive via
  /// shared_ptr even after it leaves active_.
  struct Run {
    const FrameGraph* g = nullptr;
    Completion done;
    std::uint64_t flow = 0;            // frame lineage id (0 = untraced)
    std::vector<std::size_t> pending;  // unmet dependency count per node
    std::size_t remaining = 0;         // nodes not yet completed
    std::size_t running = 0;           // node bodies currently executing
    bool failed = false;
    bool fired = false;
    std::exception_ptr error;
  };
  using RunPtr = std::shared_ptr<Run>;

  explicit Impl(const Options& options) : opts(options) {
    const std::size_t n =
        opts.num_workers > 0 ? opts.num_workers : hardware_threads();
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([this] { worker(); });
    }
  }

  void worker() {
    // With serialize_nodes each worker processes its nodes with serial-inline
    // parallel_fors, so distinct nodes scale across workers instead of
    // queueing on the pool's single job slot.
    std::unique_ptr<ScopedSerial> serial;
    if (opts.serialize_nodes) serial = std::make_unique<ScopedSerial>();
    std::unique_lock lock(mu);
    while (true) {
      cv.wait(lock, [this] { return stopped || !queue.empty(); });
      if (stopped) return;
      auto [run, id] = queue.front();
      queue.pop_front();
      t_queue_depth.sub();
      if (run->failed) {
        maybe_finish(lock, run);
        continue;
      }
      ++run->running;
      lock.unlock();
      std::exception_ptr error;
      t_nodes.add();
      try {
        // Flow before span: the span's trace event (recorded at span
        // destruction) must see the run's ambient lineage id.
        telemetry::ScopedFlow flow(run->flow);
        telemetry::ScopedSpan span(&t_node_s,
                                   run->g->nodes_[id].name.c_str());
        obs::ServiceState::instance().thread_note(
            run->g->nodes_[id].name.c_str());
        run->g->nodes_[id].fn();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --run->running;
      if (error) {
        if (!run->failed) {
          run->failed = true;
          run->error = error;
        }
      } else if (!run->failed) {
        complete_locked(run, id);
      }
      maybe_finish(lock, run);
    }
  }

  /// Marks node `id` of `run` complete and enqueues newly-ready successors.
  /// Caller holds mu.
  void complete_locked(const RunPtr& run, NodeId id) {
    for (const NodeId succ : run->g->nodes_[id].successors) {
      if (--run->pending[succ] == 0) {
        queue.push_back({run, succ});
        t_queue_depth.add();
      }
    }
    --run->remaining;
    if (!run->g->nodes_[id].successors.empty()) cv.notify_all();
  }

  /// Fires the completion outside the lock if the run just finished
  /// (success: all nodes done; failure: running bodies drained).
  void maybe_finish(std::unique_lock<std::mutex>& lock, const RunPtr& run) {
    const bool finished = !run->fired && ((run->failed && run->running == 0) ||
                                          (!run->failed && run->remaining == 0));
    if (!finished) return;
    run->fired = true;
    active.erase(run->g);
    Completion done = std::move(run->done);
    const std::exception_ptr error = run->error;
    lock.unlock();
    if (done) done(error);
    lock.lock();
  }

  Options opts;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread> threads;
  std::deque<std::pair<RunPtr, NodeId>> queue;
  std::unordered_map<const FrameGraph*, RunPtr> active;
  bool stopped = false;

  // Instruments resolved once at construction; the registry keeps the
  // references valid for the process lifetime.
  telemetry::Counter& t_nodes =
      telemetry::Registry::instance().counter("graph.nodes_executed");
  telemetry::Gauge& t_queue_depth =
      telemetry::Registry::instance().gauge("graph.ready_queue");
  telemetry::LatencyHistogram& t_node_s =
      telemetry::Registry::instance().histogram("graph.node_s");
};

Executor::Executor(const Options& options)
    : impl_(std::make_unique<Impl>(options)) {}

Executor::~Executor() { stop(); }

void Executor::launch(const FrameGraph& g, Completion done,
                      std::uint64_t flow) {
  TVBF_REQUIRE(!g.empty(), "cannot launch an empty frame graph");
  auto run = std::make_shared<Impl::Run>();
  run->g = &g;
  run->done = std::move(done);
  run->flow = flow;
  run->remaining = g.size();
  run->pending.resize(g.size());
  {
    std::lock_guard lock(impl_->mu);
    TVBF_REQUIRE(!impl_->stopped, "executor is stopped");
    TVBF_REQUIRE(impl_->active.find(&g) == impl_->active.end(),
                 "frame graph is already in flight");
    impl_->active.emplace(&g, run);
    for (NodeId id = 0; id < g.size(); ++id) {
      run->pending[id] = g.dependencies(id).size();
      if (run->pending[id] == 0) {
        impl_->queue.push_back({run, id});
        impl_->t_queue_depth.add();
      }
    }
  }
  impl_->cv.notify_all();
}

std::size_t Executor::workers() const { return impl_->threads.size(); }

void Executor::stop() {
  std::vector<Impl::RunPtr> orphans;
  {
    std::unique_lock lock(impl_->mu);
    if (impl_->stopped) {
      lock.unlock();
    } else {
      impl_->stopped = true;
      for (auto& [g, run] : impl_->active) {
        if (!run->failed) {
          run->failed = true;
          run->error = std::make_exception_ptr(
              LogicError("graph executor stopped with launches in flight"));
        }
        if (!run->fired && run->running == 0) {
          run->fired = true;
          orphans.push_back(run);
        }
      }
      impl_->t_queue_depth.sub(
          static_cast<std::int64_t>(impl_->queue.size()));
      impl_->queue.clear();
      lock.unlock();
      impl_->cv.notify_all();
    }
  }
  for (auto& run : orphans) {
    Completion done = std::move(run->done);
    if (done) done(run->error);
  }
  for (auto& t : impl_->threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace tvbf::graph
