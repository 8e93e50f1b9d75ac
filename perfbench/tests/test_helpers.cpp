// Tests of the benchmark's own helpers: the percentile rule, the paced
// source and seeded input generation.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "device_trace.hpp"
#include "inputs.hpp"
#include "sources.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace tv = tvbf;

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(20, 0.5), 10);
  EXPECT_EQ(samples_beyond(19, 0.5), 9);
  EXPECT_EQ(samples_beyond(100, 0.9), 10);
  EXPECT_EQ(samples_beyond(99, 0.9), 9);
  EXPECT_FALSE(percentile(ramp(19), 0.5).has_value());
  EXPECT_TRUE(percentile(ramp(20), 0.5).has_value());
  EXPECT_FALSE(percentile(ramp(99), 0.9).has_value());
  EXPECT_TRUE(percentile(ramp(100), 0.9).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, InterpolatesSortedRanks) {
  // 1..21: the median is 11 whatever the input order.
  EXPECT_DOUBLE_EQ(*percentile(ramp(21), 0.5), 11.0);
  // 1..100: rank 0.9 * 99 = 89.1 -> 90 + 0.1.
  EXPECT_NEAR(*percentile(ramp(100), 0.9), 90.1, 1e-12);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PacedSource, DueTimesLatenessAndWindowEnd) {
  const tv::us::Probe probe = tv::us::Probe::test_probe(8);
  const Scene scene = make_scene(5, 2, probe,
                                 tv::us::ImagingGrid::reduced(probe, 16, 8));
  PaceSchedule sched;
  sched.period_s = 0.01;
  sched.offset_s = 0.002;
  sched.warmup = 2;
  sched.window_s = 0.05;
  ASSERT_EQ(sched.window_frames(), 5);
  ASSERT_EQ(sched.total_frames(), 8);

  Epoch epoch;
  PacedSource source(scene.acquisitions, sched, epoch);
  tv::rt::Frame frame;
  ASSERT_TRUE(source.next(frame));  // the cold-start frame is not paced
  EXPECT_EQ(frame.index, 0);
  const Clock::time_point e = Clock::now();
  epoch.set(e);

  std::int64_t produced = 1;
  while (source.next(frame)) {
    const std::int64_t k = frame.index;
    ASSERT_EQ(k, produced);
    const auto& t = source.timing(k);
    const double due_s = seconds_between(e, t.due);
    EXPECT_NEAR(due_s, 0.002 + 0.01 * static_cast<double>(k - 1), 1e-6);
    EXPECT_GE(seconds_between(t.due, t.handoff), 0.0);
    EXPECT_EQ(source.in_window(k), k >= 3);
    if (k == 4) {
      // The program asks 25 ms late: frame 5 goes out at once, late.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    } else if (k == 5) {
      EXPECT_GT(t.lateness_s, 0.01);
    } else if (k < 4) {
      EXPECT_LT(t.lateness_s, 0.005);
    }
    ++produced;
  }
  EXPECT_EQ(produced, 8);  // stops at the window end
  EXPECT_FALSE(source.next(frame));
}

TEST(LoopSource, StopsOnRequestAndReplaysRoundRobin) {
  const tv::us::Probe probe = tv::us::Probe::test_probe(8);
  const Scene scene = make_scene(5, 2, probe,
                                 tv::us::ImagingGrid::reduced(probe, 16, 8));
  LoopSource source(scene.acquisitions, -1);
  tv::rt::Frame frame;
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(source.next(frame));
  EXPECT_EQ(frame.acq.rf.data()[0], scene.acquisitions[0].rf.data()[0]);
  source.stop();
  EXPECT_FALSE(source.next(frame));
  EXPECT_EQ(source.produced(), 3);
}

TEST(Inputs, SameSeedSameAcquisitionsAndWeights) {
  const tv::us::Probe probe = tv::us::Probe::test_probe(16);
  const auto grid = tv::us::ImagingGrid::reduced(probe, 32, 16);
  const Scene a = make_scene(42, 2, probe, grid);
  const Scene b = make_scene(42, 2, probe, grid);
  const Scene c = make_scene(43, 2, probe, grid);
  ASSERT_EQ(a.acquisitions.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(bit_equal(a.acquisitions[i].rf, b.acquisitions[i].rf));
    EXPECT_FALSE(bit_equal(a.acquisitions[i].rf, c.acquisitions[i].rf));
  }
  EXPECT_FALSE(bit_equal(a.acquisitions[0].rf, a.acquisitions[1].rf));

  const auto cfg = tv::models::TinyVbfConfig::test(16, 16);
  const auto wa = make_weights(42, cfg)->parameters();
  const auto wb = make_weights(42, cfg)->parameters();
  const auto wc = make_weights(43, cfg)->parameters();
  ASSERT_EQ(wa.size(), wb.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_TRUE(bit_equal(wa[i].value(), wb[i].value()));
    any_differs |= !bit_equal(wa[i].value(), wc[i].value());
  }
  EXPECT_TRUE(any_differs);
}

TEST(SpanTotals, SelfTimeExcludesChildren) {
  std::vector<Span> spans(3);
  spans[0] = {1, 0, 0, "frame", 0, 100};
  spans[1] = {2, 1, 0, "stage", 10, 60};
  spans[2] = {3, 2, 0, "device.gemm", 20, 50};
  const auto t = span_totals(spans);
  EXPECT_DOUBLE_EQ(t.at("frame").self_ns, 50.0);
  EXPECT_DOUBLE_EQ(t.at("stage").self_ns, 20.0);
  EXPECT_DOUBLE_EQ(t.at("device.gemm").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(t.at("stage").total_ns, 50.0);
}

}  // namespace
}  // namespace perfbench
