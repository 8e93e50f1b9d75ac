// Tests for the frame-graph execution layer: FrameGraph structure,
// Executor readiness scheduling (diamond fan-in, failure drain,
// stop/cancel), BufferArena reuse, and bit-identity of
// graph-scheduled frames against a linear FrameProcessor::process loop for
// DAS, float Tiny-VBF and quantized sessions — single-angle and compounded
// — and of served sessions against their solo pipelines.
// Carries the `graph` ctest label and runs under the tsan CI preset.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "beamform/compounding.hpp"
#include "beamform/das.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/arena.hpp"
#include "graph/executor.hpp"
#include "graph/frame_graph.hpp"
#include "models/neural_beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "us/plan_cache.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"

namespace tvbf::graph {
namespace {

void done_fn() {}

// ---- FrameGraph structure --------------------------------------------------

TEST(FrameGraphTest, InsertionOrderIsTopological) {
  FrameGraph g;
  const NodeId a = g.add("a", {}, done_fn);
  const NodeId b = g.add("b", {a}, done_fn);
  const NodeId c = g.add("c", {a}, done_fn);
  g.add("d", {b, c}, done_fn);
  EXPECT_EQ(g.size(), 4u);
  for (NodeId id = 0; id < g.size(); ++id)
    for (const NodeId dep : g.dependencies(id)) EXPECT_LT(dep, id);
}

TEST(FrameGraphTest, SuccessorsMirrorDependencies) {
  FrameGraph g;
  const NodeId a = g.add("a", {}, done_fn);
  const NodeId b = g.add("b", {a}, done_fn);
  const NodeId c = g.add("c", {a, b}, done_fn);
  EXPECT_EQ(g.successors(a), (std::vector<NodeId>{b, c}));
  EXPECT_EQ(g.successors(b), (std::vector<NodeId>{c}));
  EXPECT_TRUE(g.successors(c).empty());
  EXPECT_EQ(g.name(b), "b");
}

TEST(FrameGraphTest, UnknownDependencyThrows) {
  FrameGraph g;
  // A node may only depend on already-added nodes; self/forward references
  // (the only way to form a cycle) are rejected at add() time.
  EXPECT_THROW(g.add("a", {0}, done_fn), InvalidArgument);
  g.add("a", {}, done_fn);
  EXPECT_THROW(g.add("b", {7}, done_fn), InvalidArgument);
}

TEST(FrameGraphTest, ClearAllowsRebuildInPlace) {
  FrameGraph g;
  g.add("a", {}, done_fn);
  g.add("b", {0}, done_fn);
  g.clear();
  EXPECT_TRUE(g.empty());
  const NodeId a = g.add("a2", {}, done_fn);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(g.size(), 1u);
}

// ---- Executor readiness scheduling -----------------------------------------

/// Launches `g` and blocks until its completion fires.
std::exception_ptr run_to_completion(Executor& ex, const FrameGraph& g) {
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  std::exception_ptr error;
  ex.launch(g, [&](std::exception_ptr e) {
    std::lock_guard lock(mu);
    error = e;
    fired = true;
    cv.notify_all();
  });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return fired; });
  return error;
}

Executor::Options two_workers() {
  Executor::Options opts;
  opts.num_workers = 2;
  opts.serialize_nodes = false;
  return opts;
}

TEST(ExecutorTest, DiamondFanInWaitsForAllDependencies) {
  Executor ex(two_workers());
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](const char* name) {
    std::lock_guard lock(order_mu);
    order.emplace_back(name);
  };
  FrameGraph g;
  const NodeId top = g.add("top", {}, [&] { record("top"); });
  const NodeId left = g.add("left", {top}, [&] { record("left"); });
  const NodeId right = g.add("right", {top}, [&] { record("right"); });
  g.add("join", {left, right}, [&] { record("join"); });

  ASSERT_EQ(run_to_completion(ex, g), nullptr);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "top");
  EXPECT_EQ(order.back(), "join");  // join ran after BOTH mid nodes
}

TEST(ExecutorTest, NodeFailureDrainsWithoutRunningSuccessors) {
  Executor ex(two_workers());
  std::atomic<int> downstream{0};
  FrameGraph g;
  const NodeId bad =
      g.add("bad", {}, [] { throw std::runtime_error("stage exploded"); });
  g.add("after", {bad}, [&] { downstream.fetch_add(1); });

  const std::exception_ptr error = run_to_completion(ex, g);
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_EQ(downstream.load(), 0);
}

TEST(ExecutorTest, StopFailsQueuedLaunchesOnce) {
  // One worker is held inside graph a's first node while graphs b and c
  // wait in the ready queue, never started. stop() must fire every
  // completion exactly once with the stop error — the queued launches at
  // once, the running one when its node returns — and run no successor.
  constexpr int kGraphs = 3;
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::atomic<int> downstream{0};
  std::vector<FrameGraph> graphs(kGraphs);
  const NodeId hold = graphs[0].add("hold", {}, [&] {
    std::unique_lock lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  graphs[0].add("after", {hold}, [&] { downstream.fetch_add(1); });
  for (int k = 1; k < kGraphs; ++k) {
    const NodeId a = graphs[k].add("a", {}, [&] { downstream.fetch_add(1); });
    graphs[k].add("b", {a}, [&] { downstream.fetch_add(1); });
  }

  std::vector<std::atomic<int>> fired(kGraphs);
  std::vector<std::exception_ptr> errors(kGraphs);
  {
    Executor::Options opts;
    opts.num_workers = 1;
    opts.serialize_nodes = false;
    Executor ex(opts);
    for (int k = 0; k < kGraphs; ++k) {
      ex.launch(graphs[k], [&, k](std::exception_ptr e) {
        errors[k] = e;
        fired[k].fetch_add(1);
        // The last queued launch's completion frees the held worker, so
        // stop() can join it.
        if (k == kGraphs - 1) {
          std::lock_guard lock(mu);
          release = true;
          cv.notify_all();
        }
      });
    }
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return started; });
    }
    ex.stop();
  }  // the destructor's second stop() must not fire anything again
  for (int k = 0; k < kGraphs; ++k) {
    EXPECT_EQ(fired[k].load(), 1) << "graph " << k;
    ASSERT_NE(errors[k], nullptr) << "graph " << k;
    EXPECT_THROW(std::rethrow_exception(errors[k]), LogicError);
  }
  EXPECT_EQ(downstream.load(), 0);
}

TEST(ExecutorTest, InterleavedGraphsAllComplete) {
  Executor ex(two_workers());
  constexpr int kGraphs = 6;
  std::atomic<int> total{0};
  std::vector<FrameGraph> graphs(kGraphs);
  for (auto& g : graphs) {
    const NodeId a = g.add("a", {}, [&] { total.fetch_add(1); });
    const NodeId b = g.add("b", {a}, [&] { total.fetch_add(1); });
    g.add("c", {a, b}, [&] { total.fetch_add(1); });
  }

  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  for (auto& g : graphs) {
    ex.launch(g, [&](std::exception_ptr e) {
      EXPECT_EQ(e, nullptr);
      std::lock_guard lock(mu);
      ++fired;
      cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return fired == kGraphs; });
  EXPECT_EQ(total.load(), kGraphs * 3);
}

TEST(ExecutorTest, SameGraphRelaunchesFrameAfterFrame) {
  Executor ex(two_workers());
  std::atomic<int> runs{0};
  FrameGraph g;
  const NodeId a = g.add("a", {}, [&] { runs.fetch_add(1); });
  g.add("b", {a}, done_fn);
  for (int frame = 0; frame < 5; ++frame)
    ASSERT_EQ(run_to_completion(ex, g), nullptr);
  EXPECT_EQ(runs.load(), 5);
}

// ---- BufferArena -----------------------------------------------------------

TEST(ArenaTest, ReusesReleasedBufferOfSameShape) {
  BufferArena arena;
  Tensor a = arena.acquire({4, 8});
  EXPECT_EQ(a.shape(), (Shape{4, 8}));
  arena.release(std::move(a));
  EXPECT_EQ(arena.stats().free_buffers, 1u);

  const Tensor b = arena.acquire({4, 8});
  EXPECT_EQ(b.shape(), (Shape{4, 8}));
  const auto stats = arena.stats();
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
  EXPECT_EQ(stats.free_buffers, 0u);
}

TEST(ArenaTest, DifferentShapeAllocatesFresh) {
  BufferArena arena;
  arena.release(arena.acquire({4, 8}));
  const Tensor b = arena.acquire({8, 4});  // same numel, different shape
  EXPECT_EQ(b.shape(), (Shape{8, 4}));
  EXPECT_EQ(arena.stats().allocations, 2u);
  EXPECT_EQ(arena.stats().reuses, 0u);
}

TEST(ArenaTest, ClearDropsFreeListKeepsOutstanding) {
  BufferArena arena;
  const Tensor held = arena.acquire({2, 2});
  arena.release(arena.acquire({2, 2}));
  ASSERT_EQ(arena.stats().free_buffers, 1u);
  arena.clear();
  EXPECT_EQ(arena.stats().free_buffers, 0u);
  EXPECT_EQ(arena.stats().outstanding, 1u);
}

TEST(ArenaTest, BudgetEvictsLeastRecentlyReleased) {
  BufferArena arena;
  // Room for exactly two 64-float buffers.
  arena.set_budget_bytes(2 * 64 * sizeof(float));
  Tensor a = arena.acquire({64});
  Tensor b = arena.acquire({64});
  Tensor c = arena.acquire({64});
  arena.release(std::move(a));
  arena.release(std::move(b));
  EXPECT_EQ(arena.stats().free_bytes, 2 * 64 * sizeof(float));
  EXPECT_EQ(arena.stats().evictions, 0u);

  // The third release pushes over budget: the oldest buffer (a) goes.
  arena.release(std::move(c));
  const auto stats = arena.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.free_buffers, 2u);
  EXPECT_EQ(stats.free_bytes, 2 * 64 * sizeof(float));
  EXPECT_EQ(stats.budget_bytes, 2 * 64 * sizeof(float));
  // The survivors still serve acquires.
  const Tensor again = arena.acquire({64});
  EXPECT_EQ(arena.stats().reuses, 1u);
}

TEST(ArenaTest, OversizedBufferIsDroppedNotPooled) {
  BufferArena arena;
  arena.set_budget_bytes(16);  // smaller than any real buffer
  arena.release(arena.acquire({1024}));
  const auto stats = arena.stats();
  EXPECT_EQ(stats.free_buffers, 0u);
  EXPECT_EQ(stats.free_bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ArenaTest, DefaultBudgetLeavesSteadyStateReuseUntouched) {
  // The regression guard for the streaming hot path: at the default budget
  // a frame-sized working set recycles forever without a single eviction.
  BufferArena arena;
  for (int frame = 0; frame < 16; ++frame) {
    Tensor slot_a = arena.acquire({96, 32, 16});
    Tensor slot_b = arena.acquire({96, 32, 16});
    arena.release(std::move(slot_a));
    arena.release(std::move(slot_b));
  }
  const auto stats = arena.stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.reuses, 30u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.budget_bytes, BufferArena::kDefaultBudgetBytes);
}

// ---- graph vs linear bit-identity ------------------------------------------

class GraphIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { us::PlanCache::instance().clear(); }
  void TearDown() override { us::PlanCache::instance().clear(); }

  /// Cine source; `angles > 1` yields compounded multi-angle frames.
  std::shared_ptr<rt::CineSource> cine(std::int64_t frames,
                                       std::int64_t angles) const {
    us::Region region{-4e-3, 4e-3, 12e-3, 24e-3};
    rt::CineParams p;
    p.num_frames = frames;
    p.frame_rate_hz = 10.0;
    p.lateral_speed_m_s = 5e-3;
    p.axial_amplitude_m = 0.4e-3;
    p.sim = clean_;
    if (angles > 1) {
      bf::CompoundingParams compounding;
      compounding.num_angles = angles;
      p.compound_angles_rad = compounding.angles();
    }
    return std::make_shared<rt::CineSource>(
        probe_, us::make_single_point(18e-3, 0.0, region), p);
  }

  rt::PipelineConfig config() const {
    rt::PipelineConfig cfg;
    cfg.grid = grid_;
    return cfg;
  }

  /// B-mode frames of a solo Pipeline::run (graph-scheduled stages).
  std::vector<Tensor> run(std::shared_ptr<const bf::Beamformer> beamformer,
                          std::int64_t frames, std::int64_t angles) const {
    std::vector<Tensor> out;
    rt::Pipeline pipeline(cine(frames, angles), std::move(beamformer),
                          config());
    pipeline.run([&](const rt::FrameOutput& f) { out.push_back(f.db); });
    return out;
  }

  /// B-mode frames of the same source stepped inline, one
  /// FrameProcessor::process call per frame.
  std::vector<Tensor> step(std::shared_ptr<const bf::Beamformer> beamformer,
                           std::int64_t angles) const {
    std::vector<Tensor> out;
    rt::FrameProcessor processor(std::move(beamformer), config());
    const auto source = cine(3, angles);
    source->reset();
    rt::Frame frame;
    while (source->next(frame)) out.push_back(processor.process(frame).db);
    return out;
  }

  /// Asserts graph scheduling reproduces the linear path bit for bit.
  void expect_identical(std::shared_ptr<const bf::Beamformer> beamformer,
                        std::int64_t angles) {
    const std::vector<Tensor> linear = step(beamformer, angles);
    const std::vector<Tensor> graph = run(beamformer, 3, angles);
    ASSERT_EQ(linear.size(), 3u);
    ASSERT_EQ(linear.size(), graph.size());
    for (std::size_t i = 0; i < linear.size(); ++i) {
      ASSERT_EQ(linear[i].shape(), graph[i].shape());
      EXPECT_EQ(max_abs_diff(linear[i], graph[i]), 0.0f)
          << "frame " << i << ", " << angles << " angle(s)";
    }
  }

  std::shared_ptr<models::TinyVbf> model() const {
    Rng rng(7);
    return std::make_shared<models::TinyVbf>(
        models::TinyVbfConfig::test(16, 32), rng);
  }

  us::Probe probe_ = us::Probe::test_probe(16);
  us::SimParams clean_ = [] {
    us::SimParams p = us::SimParams::in_silico();
    p.add_noise = false;
    p.max_depth = 26e-3;
    return p;
  }();
  us::ImagingGrid grid_ =
      us::ImagingGrid::reduced(probe_, 40, 32, 12e-3, 24e-3);
};

TEST_F(GraphIdentityTest, DasMatchesLinearSingleAndCompounded) {
  const auto das = std::make_shared<bf::DasBeamformer>(probe_);
  expect_identical(das, 1);
  expect_identical(das, 3);
}

TEST_F(GraphIdentityTest, TinyVbfMatchesLinearSingleAndCompounded) {
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(model());
  expect_identical(vbf, 1);
  expect_identical(vbf, 3);
}

TEST_F(GraphIdentityTest, QuantizedMatchesLinearSingleAndCompounded) {
  const auto quantized = std::make_shared<quant::QuantizedVbfBeamformer>(
      std::make_shared<quant::QuantizedTinyVbf>(*model(),
                                                quant::QuantScheme::uniform(16)));
  expect_identical(quantized, 1);
  expect_identical(quantized, 3);
}

// ---- server-level graph scheduling -----------------------------------------

TEST_F(GraphIdentityTest, ServerGraphMatchesSoloMixedSessions) {
  // Mixed DAS + float VBF + quantized sessions, compounded frames: every
  // served session, two of them sharing one model, must reproduce its solo
  // Pipeline::run exactly.
  const auto shared_model = model();
  const auto das = std::make_shared<bf::DasBeamformer>(probe_);
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(shared_model);
  const auto quantized = std::make_shared<quant::QuantizedVbfBeamformer>(
      std::make_shared<quant::QuantizedTinyVbf>(*shared_model,
                                                quant::QuantScheme::uniform(16)));
  const std::vector<std::shared_ptr<const bf::Beamformer>> beamformers = {
      das, vbf, vbf, quantized};

  serve::Server server;
  std::vector<std::vector<Tensor>> served(beamformers.size());
  for (std::size_t s = 0; s < beamformers.size(); ++s) {
    auto& into = served[s];
    server.add_session(
        {cine(3, 2), beamformers[s], config(),
         [&into](const rt::FrameOutput& f) { into.push_back(f.db); }});
  }
  server.run();

  for (std::size_t s = 0; s < beamformers.size(); ++s) {
    const std::vector<Tensor> solo = run(beamformers[s], 3, 2);
    ASSERT_EQ(solo.size(), 3u) << "session " << s;
    ASSERT_EQ(served[s].size(), 3u) << "session " << s;
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(max_abs_diff(served[s][i], solo[i]), 0.0f)
          << "session " << s << " frame " << i;
  }
}

TEST_F(GraphIdentityTest, SharedModelSessionsWithUnequalFramesMatchSolo) {
  // Two sessions share one model but run UNEQUAL frame counts (2 and 5):
  // the short session retires early and the survivor keeps streaming. Each
  // must deliver exactly its solo Pipeline::run frames.
  const auto vbf = std::make_shared<models::TinyVbfBeamformer>(model());
  const std::vector<std::int64_t> frame_counts = {2, 5};

  std::vector<std::vector<Tensor>> expected;
  for (const std::int64_t n : frame_counts) expected.push_back(run(vbf, n, 1));

  serve::Server server;
  std::vector<std::vector<Tensor>> got(frame_counts.size());
  for (std::size_t s = 0; s < frame_counts.size(); ++s) {
    auto& into = got[s];
    server.add_session(
        {cine(frame_counts[s], 1), vbf, config(),
         [&into](const rt::FrameOutput& f) { into.push_back(f.db); }});
  }
  const serve::ServerReport report = server.run();

  EXPECT_EQ(report.frames, 7);
  for (std::size_t s = 0; s < frame_counts.size(); ++s) {
    ASSERT_EQ(got[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t i = 0; i < got[s].size(); ++i)
      EXPECT_EQ(max_abs_diff(got[s][i], expected[s][i]), 0.0f)
          << "session " << s << " frame " << i;
  }
}

}  // namespace
}  // namespace tvbf::graph
