// Device-layer suite: the CpuDevice backend must be bit-identical to the
// direct kernel calls the hot paths used before the command-list refactor;
// AccelDevice must execute identically while pricing each list from the
// cycle model plus its per-list dispatch overhead.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "accel/accel_device.hpp"
#include "device/cpu_device.hpp"
#include "device/device.hpp"
#include "dsp/interpolate.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::device {
namespace {

using accel::AccelDevice;

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

// ---- CpuDevice bit-identity ------------------------------------------------

TEST(CpuDevice, GemmBitIdenticalToDirectKernel) {
  Rng rng(1);
  const std::int64_t m = 33, k = 65, n = 17;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor via_device({m, n}), direct({m, n});
  cpu().submit(
      CommandEncoder().gemm(a.raw(), b.raw(), via_device.raw(), m, k, n)
          .finish());
  kernels::gemm(a.raw(), b.raw(), direct.raw(), m, k, n);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, BatchedGemmBitIdenticalToPerBatchKernel) {
  Rng rng(2);
  const std::int64_t batch = 5, m = 9, k = 21, n = 13;
  const Tensor a = random_tensor({batch, m, k}, rng);
  const Tensor b = random_tensor({batch, k, n}, rng);
  Tensor via_device({batch, m, n}), direct({batch, m, n});
  cpu().submit(CommandEncoder()
                   .batched_gemm(a.raw(), b.raw(), via_device.raw(), batch, m,
                                 k, n)
                   .finish());
  for (std::int64_t i = 0; i < batch; ++i)
    kernels::gemm_rows(a.raw() + i * m * k, b.raw() + i * k * n,
                       direct.raw() + i * m * n, m, k, n, 0, m);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, BatchedGemmNtBitIdenticalToPerBatchKernel) {
  Rng rng(3);
  const std::int64_t batch = 4, m = 7, k = 15, n = 11;
  const Tensor a = random_tensor({batch, m, k}, rng);
  const Tensor b = random_tensor({batch, n, k}, rng);  // (n, k) rows: B^T
  Tensor via_device({batch, m, n}), direct({batch, m, n});
  cpu().submit(CommandEncoder()
                   .batched_gemm(a.raw(), b.raw(), via_device.raw(), batch, m,
                                 k, n, /*transpose_b=*/true)
                   .finish());
  for (std::int64_t i = 0; i < batch; ++i)
    kernels::gemm_nt_rows(a.raw() + i * m * k, b.raw() + i * n * k,
                          direct.raw() + i * m * n, m, k, n, 0, m);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, GemmTnAccumulatesBitIdentically) {
  Rng rng(4);
  const std::int64_t m = 19, k = 12, n = 23;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({m, n}, rng);
  Tensor via_device = random_tensor({k, n}, rng);  // C += A^T.B
  Tensor direct = via_device;
  cpu().submit(
      CommandEncoder().gemm_tn(a.raw(), b.raw(), via_device.raw(), m, k, n)
          .finish());
  kernels::gemm_tn_accumulate(a.raw(), b.raw(), direct.raw(), m, k, n);
  EXPECT_EQ(max_abs_diff(via_device, direct), 0.0f);
}

TEST(CpuDevice, ConvCommandsBitIdenticalToDirectKernels) {
  Rng rng(5);
  const kernels::Conv2dShape s{11, 9, 3, 3, 5, 4};
  const Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  const Tensor kernel = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);

  Tensor out_dev({s.H, s.W, s.Co}), out_direct({s.H, s.W, s.Co});
  Tensor gb_dev({s.Co}), gb_direct({s.Co});
  Tensor gk_dev({s.kh, s.kw, s.Ci, s.Co}), gk_direct({s.kh, s.kw, s.Ci, s.Co});
  Tensor gx_dev({s.H, s.W, s.Ci}), gx_direct({s.H, s.W, s.Ci});

  cpu().submit(
      CommandEncoder()
          .encode(Conv2dForwardCmd{in.raw(), kernel.raw(), out_dev.raw(), s})
          .encode(Conv2dBackwardBiasCmd{dy.raw(), gb_dev.raw(), s})
          .encode(Conv2dBackwardKernelCmd{in.raw(), dy.raw(), gk_dev.raw(), s})
          .encode(
              Conv2dBackwardInputCmd{kernel.raw(), dy.raw(), gx_dev.raw(), s})
          .finish());
  kernels::conv2d_same_forward(in.raw(), kernel.raw(), out_direct.raw(), s);
  kernels::conv2d_same_backward_bias(dy.raw(), gb_direct.raw(), s);
  kernels::conv2d_same_backward_kernel(in.raw(), dy.raw(), gk_direct.raw(), s);
  kernels::conv2d_same_backward_input(kernel.raw(), dy.raw(), gx_direct.raw(),
                                      s);
  EXPECT_EQ(max_abs_diff(out_dev, out_direct), 0.0f);
  EXPECT_EQ(max_abs_diff(gb_dev, gb_direct), 0.0f);
  EXPECT_EQ(max_abs_diff(gk_dev, gk_direct), 0.0f);
  EXPECT_EQ(max_abs_diff(gx_dev, gx_direct), 0.0f);
}

/// Serial reference for one gather entry, re-deriving the plan encoding
/// (kOutOfRange -> 0, idx >= 0 -> interior interp, biased -> linear edge).
float reference_gather(const float* line, std::int32_t idx, float frac,
                       dsp::Interp interp) {
  if (idx == TofGatherCmd::kOutOfRange) return 0.0f;
  if (idx >= 0 && interp == dsp::Interp::kCubic) {
    const double u = frac;
    const double p0 = line[idx - 1], p1 = line[idx], p2 = line[idx + 1],
                 p3 = line[idx + 2];
    const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
    const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
    const double c = -0.5 * p0 + 0.5 * p2;
    return static_cast<float>(((a * u + b) * u + c) * u + p1);
  }
  const std::int32_t base =
      idx >= 0 ? idx : TofGatherCmd::kLinearBias - idx;
  const double f = frac;
  return static_cast<float>((1.0 - f) * line[base] + f * line[base + 1]);
}

/// A plan table of `entries` entries over lines of `nsamples` samples that
/// cycles through every encoding: interior, out of range, biased linear.
std::pair<std::vector<std::int32_t>, std::vector<float>> test_plan_entries(
    std::int64_t entries, std::int64_t nsamples) {
  std::vector<std::int32_t> idx(static_cast<std::size_t>(entries));
  std::vector<float> frac(static_cast<std::size_t>(entries));
  for (std::int64_t i = 0; i < entries; ++i) {
    frac[static_cast<std::size_t>(i)] =
        static_cast<float>(0.5 + 0.4 * std::sin(static_cast<double>(i)));
    switch (i % 4) {
      case 0:  // interior sample (cubic needs idx-1 .. idx+2 in range)
        idx[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(1 + i % (nsamples - 3));
        break;
      case 1:  // out of range -> zero
        idx[static_cast<std::size_t>(i)] = TofGatherCmd::kOutOfRange;
        break;
      default:  // biased linear fallback at the edges
        idx[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
            TofGatherCmd::kLinearBias - i % (nsamples - 1));
        break;
    }
  }
  return {std::move(idx), std::move(frac)};
}

class TofGatherTest : public ::testing::TestWithParam<dsp::Interp> {};

TEST_P(TofGatherTest, MatchesSerialReferenceWithAllEncodings) {
  const dsp::Interp interp = GetParam();
  Rng rng(6);
  const std::int64_t nz = 7, nx = 5, nch = 3, nsamples = 64;
  const Tensor lines_re = random_tensor({nch, nsamples}, rng);
  const Tensor lines_im = random_tensor({nch, nsamples}, rng);
  const std::int64_t entries = nz * nx * nch;
  const auto [idx, frac] = test_plan_entries(entries, nsamples);
  Tensor out_re({nz, nx, nch}), out_im({nz, nx, nch});
  cpu().submit(
      CommandEncoder()
          .encode(TofGatherCmd{idx.data(), frac.data(), lines_re.raw(),
                               lines_im.raw(), out_re.raw(), out_im.raw(), nz,
                               nx, nch, nsamples, interp})
          .finish());

  for (std::int64_t i = 0; i < entries; ++i) {
    const std::int64_t e = i % nch;
    const auto u = static_cast<std::size_t>(i);
    EXPECT_EQ(out_re.raw()[i],
              reference_gather(lines_re.raw() + e * nsamples, idx[u], frac[u],
                               interp))
        << "entry " << i;
    EXPECT_EQ(out_im.raw()[i],
              reference_gather(lines_im.raw() + e * nsamples, idx[u], frac[u],
                               interp))
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Interps, TofGatherTest,
                         ::testing::Values(dsp::Interp::kLinear,
                                           dsp::Interp::kCubic));

/// Pixel-dependent test weights for DasApplyCmd tables (standing in for
/// the apodization the DAS plans bake), zero on every third (pixel,
/// channel) pair so the tables are sparse.
float test_weight(std::int64_t iz, std::int64_t ix, std::int64_t e) {
  if ((iz + ix + e) % 3 == 0) return 0.0f;
  return 1.0f / static_cast<float>(1 + e + (iz + ix) % 3);
}

/// A baked DasApplyCmd table over (nz, nx, nch): per pixel, the channels
/// with a non-zero test weight, ascending, with their ToF entries when
/// `idx` is given (out-of-range ones included: they gather to 0).
struct TestTable {
  std::vector<std::int64_t> offsets{0};
  std::vector<DasEntry> entries;

  TestTable(std::int64_t nz, std::int64_t nx, std::int64_t nch,
            const std::vector<std::int32_t>& idx = {},
            const std::vector<float>& frac = {}) {
    for (std::int64_t iz = 0; iz < nz; ++iz)
      for (std::int64_t ix = 0; ix < nx; ++ix) {
        for (std::int64_t e = 0; e < nch; ++e) {
          const auto i = static_cast<std::size_t>((iz * nx + ix) * nch + e);
          DasEntry entry{.channel = static_cast<std::int32_t>(e),
                         .weight = test_weight(iz, ix, e)};
          if (!idx.empty()) {
            entry.idx = idx[i];
            entry.frac = frac[i];
          }
          if (entry.weight != 0.0f) entries.push_back(entry);
        }
        offsets.push_back(static_cast<std::int64_t>(entries.size()));
      }
  }

  DasApplyCmd cmd(DasApplyCmd::Input input, const float* re, const float* im,
                  float* out, std::int64_t nz, std::int64_t nx,
                  std::int64_t nch) const {
    return DasApplyCmd{.input = input,
                       .offsets = offsets.data(),
                       .entries = entries.data(),
                       .re = re,
                       .im = im,
                       .out = out,
                       .nz = nz,
                       .nx = nx,
                       .nch = nch,
                       .num_entries =
                           static_cast<std::int64_t>(entries.size())};
  }
};

/// The dense serial gather-then-sum DAS over a (nz, nx, nch) plane: every
/// channel, zero weights included, accumulated in double.
double dense_das(const Tensor& plane, std::int64_t iz, std::int64_t ix) {
  const std::int64_t nx = plane.dim(1), nch = plane.dim(2);
  double acc = 0.0;
  for (std::int64_t e = 0; e < nch; ++e)
    acc += static_cast<double>(test_weight(iz, ix, e)) *
           plane.raw()[(iz * nx + ix) * nch + e];
  return acc;
}

TEST(CpuDevice, DasApplyRfMatchesSerialReference) {
  Rng rng(7);
  const std::int64_t nz = 9, nx = 6, nch = 4;
  const Tensor re = random_tensor({nz, nx, nch}, rng);
  const TestTable table(nz, nx, nch);
  ASSERT_LT(table.entries.size(), static_cast<std::size_t>(nz * nx * nch));
  Tensor out({nz, nx});
  cpu().submit(CommandEncoder()
                   .encode(table.cmd(DasApplyCmd::Input::kCube, re.raw(),
                                     nullptr, out.raw(), nz, nx, nch))
                   .finish());
  for (std::int64_t iz = 0; iz < nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix)
      EXPECT_EQ(out.raw()[iz * nx + ix],
                static_cast<float>(dense_das(re, iz, ix)))
          << iz << "," << ix;
}

TEST(CpuDevice, DasApplyIqMatchesSerialReference) {
  Rng rng(8);
  const std::int64_t nz = 8, nx = 5, nch = 3;
  const Tensor re = random_tensor({nz, nx, nch}, rng);
  const Tensor im = random_tensor({nz, nx, nch}, rng);
  const TestTable table(nz, nx, nch);
  Tensor out({nz, nx, 2});
  cpu().submit(CommandEncoder()
                   .encode(table.cmd(DasApplyCmd::Input::kCube, re.raw(),
                                     im.raw(), out.raw(), nz, nx, nch))
                   .finish());
  for (std::int64_t iz = 0; iz < nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      EXPECT_EQ(out.raw()[(iz * nx + ix) * 2],
                static_cast<float>(dense_das(re, iz, ix)));
      EXPECT_EQ(out.raw()[(iz * nx + ix) * 2 + 1],
                static_cast<float>(dense_das(im, iz, ix)));
    }
}

class DasApplyLinesTest : public ::testing::TestWithParam<dsp::Interp> {};

// The fused command over channel lines equals TofGatherCmd into a cube
// followed by the dense sum, for every plan encoding; zero-weight terms are
// absent from its table.
TEST_P(DasApplyLinesTest, FusedEqualsGatherThenSum) {
  const dsp::Interp interp = GetParam();
  Rng rng(9);
  const std::int64_t nz = 7, nx = 5, nch = 6, nsamples = 64;
  const Tensor lines_re = random_tensor({nch, nsamples}, rng);
  const Tensor lines_im = random_tensor({nch, nsamples}, rng);
  const auto [idx, frac] = test_plan_entries(nz * nx * nch, nsamples);
  Tensor cube_re({nz, nx, nch}), cube_im({nz, nx, nch});
  cpu().submit(
      CommandEncoder()
          .encode(TofGatherCmd{idx.data(), frac.data(), lines_re.raw(),
                               lines_im.raw(), cube_re.raw(), cube_im.raw(),
                               nz, nx, nch, nsamples, interp})
          .finish());

  const TestTable table(nz, nx, nch, idx, frac);
  Tensor rf({nz, nx}), iq({nz, nx, 2});
  DasApplyCmd rf_cmd = table.cmd(DasApplyCmd::Input::kLines, lines_re.raw(),
                                 nullptr, rf.raw(), nz, nx, nch);
  rf_cmd.nsamples = nsamples;
  rf_cmd.interp = interp;
  DasApplyCmd iq_cmd = rf_cmd;
  iq_cmd.im = lines_im.raw();
  iq_cmd.out = iq.raw();
  cpu().submit(CommandEncoder().encode(rf_cmd).encode(iq_cmd).finish());

  for (std::int64_t iz = 0; iz < nz; ++iz)
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      const auto p = iz * nx + ix;
      const auto want_re = static_cast<float>(dense_das(cube_re, iz, ix));
      EXPECT_EQ(rf.raw()[p], want_re) << iz << "," << ix;
      EXPECT_EQ(iq.raw()[2 * p], want_re);
      EXPECT_EQ(iq.raw()[2 * p + 1],
                static_cast<float>(dense_das(cube_im, iz, ix)));
    }
  // The cost counts active entries only: taps + the weighted MAC, per plane.
  const std::int64_t taps = interp == dsp::Interp::kCubic ? 4 : 2;
  EXPECT_EQ(command_macs(rf_cmd), rf_cmd.num_entries * (taps + 1));
  EXPECT_EQ(command_macs(iq_cmd), 2 * command_macs(rf_cmd));
}

INSTANTIATE_TEST_SUITE_P(Interps, DasApplyLinesTest,
                         ::testing::Values(dsp::Interp::kLinear,
                                           dsp::Interp::kCubic));

// ---- Routing, stats and probe discipline -----------------------------------

TEST(Routing, CurrentFallsBackToProcessCpuDevice) {
  EXPECT_EQ(&current(), &cpu());
  EXPECT_EQ(cpu().name(), "cpu");
  EXPECT_EQ(cpu_shared().get(), &cpu());
}

TEST(Routing, ScopedDeviceNestsAndRestores) {
  AccelDevice outer, inner;
  {
    const ScopedDevice a(outer);
    EXPECT_EQ(&current(), &outer);
    {
      const ScopedDevice b(inner);
      EXPECT_EQ(&current(), &inner);
    }
    EXPECT_EQ(&current(), &outer);
  }
  EXPECT_EQ(&current(), &cpu());
}

TEST(Device, SubmitCountsListsAndCommands) {
  CpuDevice dev;
  Rng rng(9);
  const Tensor a = random_tensor({2, 3}, rng);
  const Tensor b = random_tensor({3, 2}, rng);
  Tensor c({2, 2}), d({2, 2});
  dev.submit(CommandEncoder()
                 .gemm(a.raw(), b.raw(), c.raw(), 2, 3, 2)
                 .gemm(a.raw(), b.raw(), d.raw(), 2, 3, 2)
                 .finish());
  EXPECT_EQ(dev.stats().lists, 1);
  EXPECT_EQ(dev.stats().commands, 2);
  // Estimation is not a submission: counters stay put.
  dev.estimate_seconds(
      CommandEncoder().gemm(nullptr, nullptr, nullptr, 8, 8, 8).finish());
  EXPECT_EQ(dev.stats().lists, 1);
}

TEST(Device, NullPointerProbesEstimateButNeverExecute) {
  CpuDevice dev;
  const CommandList probe =
      CommandEncoder().gemm(nullptr, nullptr, nullptr, 64, 64, 64).finish();
  EXPECT_GT(dev.estimate_seconds(probe), 0.0);
  EXPECT_THROW(dev.submit(probe), InvalidArgument);
}

TEST(Device, MacCountsFollowCommandDimensions) {
  const Command gemm = GemmCmd{nullptr, nullptr, nullptr, 4, 5, 6};
  EXPECT_EQ(command_macs(gemm), 4 * 5 * 6);
  const Command batched =
      BatchedGemmCmd{nullptr, nullptr, nullptr, 3, 4, 5, 6, false};
  EXPECT_EQ(command_macs(batched), 3 * 4 * 5 * 6);
  EXPECT_EQ(list_macs({gemm, batched}), 4 * 5 * 6 + 3 * 4 * 5 * 6);
}

// ---- AccelDevice -----------------------------------------------------------

TEST(AccelDevice, ExecutesBitIdenticalToCpu) {
  Rng rng(10);
  const std::int64_t m = 15, k = 31, n = 12;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor via_cpu({m, n}), via_accel({m, n});
  cpu().submit(
      CommandEncoder().gemm(a.raw(), b.raw(), via_cpu.raw(), m, k, n)
          .finish());
  AccelDevice accel;
  accel.submit(
      CommandEncoder().gemm(a.raw(), b.raw(), via_accel.raw(), m, k, n)
          .finish());
  EXPECT_EQ(max_abs_diff(via_cpu, via_accel), 0.0f);
  EXPECT_EQ(accel.name(), "accel");
  EXPECT_EQ(accel.stats().lists, 1);
}

TEST(AccelDevice, EstimateIsDispatchOverheadPlusCycles) {
  // One GEMM list: the estimate is the per-list host dispatch overhead
  // plus the modeled cycles at the array clock, and nothing else.
  const AccelDevice accel;
  const std::int64_t m = 96, k = 64, n = 32;
  const CommandList list =
      CommandEncoder().gemm(nullptr, nullptr, nullptr, m, k, n).finish();
  const double cycles_s =
      static_cast<double>(accel.simulator().matmul_cycles(1, m, k, n)) /
      accel.simulator().config().clock_hz;
  EXPECT_GT(cycles_s, 0.0);
  EXPECT_DOUBLE_EQ(accel.estimate_seconds(list),
                   AccelDevice::kDispatchOverheadSeconds + cycles_s);
}

}  // namespace
}  // namespace tvbf::device
