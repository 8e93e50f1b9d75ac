// Readiness scheduler for frame graphs.
//
// One Executor owns a small worker set and drains a shared ready queue of
// (launched graph, node) work items: a node becomes ready the moment its last
// dependency completes, regardless of which session's graph it belongs to.
// That replaces per-session whole-frame turn-taking — with many sessions in
// flight the workers always pick up whatever stage is runnable next, and one
// session's slow beamform node does not block another session's ToF nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

#include "graph/frame_graph.hpp"

namespace tvbf::graph {

/// Schedules launched FrameGraphs' nodes across a shared worker set by
/// readiness. Thread-safe; one launch may be in flight per graph object at a
/// time (the same graph is relaunched frame after frame).
class Executor {
 public:
  struct Options {
    /// Worker threads (0 = hardware_threads()).
    std::size_t num_workers = 0;
    /// When true each worker holds a ScopedSerial for its lifetime, so node
    /// bodies run their parallel_fors serially inline and distinct nodes
    /// scale across workers instead of contending for the pool's job slot.
    bool serialize_nodes = true;
  };

  /// Fired exactly once per launch, after the last node completes or the
  /// first node failure has drained. `error` is null on success. Invoked on
  /// a worker thread (or the thread calling stop()) with no executor lock
  /// held.
  using Completion = std::function<void(std::exception_ptr error)>;

  explicit Executor(const Options& options);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Submits one execution of `g`: all roots are enqueued immediately and
  /// `done` fires after every node has completed (or the launch failed).
  /// The graph object and all storage its node bodies capture must stay
  /// alive until `done` fires. Throws if `g` is empty or already in flight.
  /// A non-zero `flow` is installed as the ambient trace flow id around
  /// every node body, so the launch's spans chain into that frame's
  /// lineage (see telemetry::ScopedFlow).
  void launch(const FrameGraph& g, Completion done, std::uint64_t flow = 0);

  /// Number of worker threads.
  std::size_t workers() const;

  /// Stops the workers. Launches still in flight fire their completions
  /// with an error. Called by the destructor.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tvbf::graph
