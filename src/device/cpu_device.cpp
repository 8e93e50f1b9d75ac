#include "device/cpu_device.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/gemm.hpp"

namespace tvbf::device {

namespace {

// Gathers one plan entry from a contiguous channel line (moved verbatim
// from the pre-refactor us::TofPlan::apply; the encoding contract lives on
// TofGatherCmd).
inline float gather(const float* line, std::int32_t idx, float frac,
                    Interp interp) {
  if (idx == TofGatherCmd::kOutOfRange) return 0.0f;
  if (idx >= 0 && interp == Interp::kCubic) {
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

void run(const GemmCmd& cmd) {
  TVBF_REQUIRE(cmd.a != nullptr && cmd.b != nullptr && cmd.c != nullptr,
               "gemm command has null operands (estimate-only probe?)");
  kernels::gemm(cmd.a, cmd.b, cmd.c, cmd.m, cmd.k, cmd.n);
}

void run(const BatchedGemmCmd& cmd) {
  TVBF_REQUIRE(cmd.a != nullptr && cmd.b != nullptr && cmd.c != nullptr,
               "batched gemm command has null operands");
  const std::int64_t m = cmd.m, k = cmd.k, n = cmd.n;
  const float* a = cmd.a;
  const float* b = cmd.b;
  float* c = cmd.c;
  // Chunk the flat (batch, row) range, then hand each per-batch span of
  // consecutive rows to the blocked kernel in one call.
  parallel_for(
      0, static_cast<std::size_t>(cmd.batch * m),
      [&](std::size_t rb, std::size_t re) {
        std::size_t r = rb;
        while (r < re) {
          const auto batch = static_cast<std::int64_t>(r) / m;
          const auto row = static_cast<std::int64_t>(r) % m;
          const auto rows = std::min<std::int64_t>(
              static_cast<std::int64_t>(re - r), m - row);
          if (cmd.transpose_b) {
            kernels::gemm_nt_rows(a + batch * m * k, b + batch * n * k,
                                  c + batch * m * n, m, k, n, row,
                                  row + rows);
          } else {
            kernels::gemm_rows(a + batch * m * k, b + batch * k * n,
                               c + batch * m * n, m, k, n, row, row + rows);
          }
          r += static_cast<std::size_t>(rows);
        }
      },
      /*min_grain=*/8);
}

void run(const GemmTnCmd& cmd) {
  TVBF_REQUIRE(cmd.a != nullptr && cmd.b != nullptr && cmd.c != nullptr,
               "gemm_tn command has null operands");
  kernels::gemm_tn_accumulate(cmd.a, cmd.b, cmd.c, cmd.m, cmd.k, cmd.n);
}

void run(const Conv2dForwardCmd& cmd) {
  TVBF_REQUIRE(cmd.in != nullptr && cmd.kernel != nullptr &&
                   cmd.out != nullptr,
               "conv2d forward command has null operands");
  kernels::conv2d_same_forward(cmd.in, cmd.kernel, cmd.out, cmd.shape);
}

void run(const Conv2dBackwardBiasCmd& cmd) {
  TVBF_REQUIRE(cmd.dy != nullptr && cmd.gb != nullptr,
               "conv2d backward-bias command has null operands");
  kernels::conv2d_same_backward_bias(cmd.dy, cmd.gb, cmd.shape);
}

void run(const Conv2dBackwardKernelCmd& cmd) {
  TVBF_REQUIRE(cmd.in != nullptr && cmd.dy != nullptr && cmd.gk != nullptr,
               "conv2d backward-kernel command has null operands");
  kernels::conv2d_same_backward_kernel(cmd.in, cmd.dy, cmd.gk, cmd.shape);
}

void run(const Conv2dBackwardInputCmd& cmd) {
  TVBF_REQUIRE(cmd.kernel != nullptr && cmd.dy != nullptr &&
                   cmd.gx != nullptr,
               "conv2d backward-input command has null operands");
  kernels::conv2d_same_backward_input(cmd.kernel, cmd.dy, cmd.gx, cmd.shape);
}

void run(const TofGatherCmd& cmd) {
  TVBF_REQUIRE(cmd.idx != nullptr && cmd.frac != nullptr &&
                   cmd.lines_re != nullptr && cmd.out_re != nullptr,
               "tof gather command has null operands");
  TVBF_REQUIRE((cmd.lines_im != nullptr) == (cmd.out_im != nullptr),
               "tof gather imag planes must be both set or both null");
  const std::int64_t nx = cmd.nx, nch = cmd.nch, n = cmd.nsamples;
  const Interp interp = cmd.interp;
  parallel_for_each(0, static_cast<std::size_t>(cmd.nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      const std::size_t row =
          static_cast<std::size_t>((iz * nx + ix) * nch);
      float* out_re = cmd.out_re + static_cast<std::int64_t>(row);
      float* out_im = cmd.out_im != nullptr
                          ? cmd.out_im + static_cast<std::int64_t>(row)
                          : nullptr;
      for (std::int64_t e = 0; e < nch; ++e) {
        const std::size_t i = row + static_cast<std::size_t>(e);
        const float* line =
            cmd.lines_re + static_cast<std::size_t>(e) *
                               static_cast<std::size_t>(n);
        out_re[e] = gather(line, cmd.idx[i], cmd.frac[i], interp);
        if (out_im != nullptr) {
          const float* line_im =
              cmd.lines_im + static_cast<std::size_t>(e) *
                                 static_cast<std::size_t>(n);
          out_im[e] = gather(line_im, cmd.idx[i], cmd.frac[i], interp);
        }
      }
    }
  }, /*min_grain=*/1);
}

// One pixel of DasApplyCmd: the weighted sum over its entries, in entry
// order, accumulated in double exactly like the gather-then-sum loop it
// fuses (a skipped zero-weight or out-of-range term adds an exact +-0).
template <bool kLines, bool kIq>
void das_pixel(const DasApplyCmd& cmd, std::int64_t p) {
  const DasEntry* e = cmd.entries + cmd.offsets[p];
  const DasEntry* end = cmd.entries + cmd.offsets[p + 1];
  const std::int64_t row = kLines ? 0 : p * cmd.nch;
  const std::int64_t stride = kLines ? cmd.nsamples : 1;
  double acc_re = 0.0, acc_im = 0.0;
  for (; e != end; ++e) {
    const auto w = static_cast<double>(e->weight);
    const std::int64_t at = row + e->channel * stride;
    if constexpr (kLines) {
      acc_re += w * gather(cmd.re + at, e->idx, e->frac, cmd.interp);
      if constexpr (kIq)
        acc_im += w * gather(cmd.im + at, e->idx, e->frac, cmd.interp);
    } else {
      acc_re += w * cmd.re[at];
      if constexpr (kIq) acc_im += w * cmd.im[at];
    }
  }
  if constexpr (kIq) {
    cmd.out[2 * p] = static_cast<float>(acc_re);
    cmd.out[2 * p + 1] = static_cast<float>(acc_im);
  } else {
    cmd.out[p] = static_cast<float>(acc_re);
  }
}

template <bool kLines, bool kIq>
void das_rows(const DasApplyCmd& cmd) {
  const std::int64_t nx = cmd.nx;
  parallel_for_each(0, static_cast<std::size_t>(cmd.nz), [&](std::size_t zi) {
    const auto p0 = static_cast<std::int64_t>(zi) * nx;
    for (std::int64_t p = p0; p < p0 + nx; ++p) das_pixel<kLines, kIq>(cmd, p);
  }, /*min_grain=*/1);
}

void run(const DasApplyCmd& cmd) {
  TVBF_REQUIRE(cmd.offsets != nullptr && cmd.entries != nullptr &&
                   cmd.re != nullptr && cmd.out != nullptr,
               "das apply command has null operands");
  const bool lines = cmd.input == DasApplyCmd::Input::kLines;
  TVBF_REQUIRE(!lines || cmd.nsamples > 1,
               "das apply over channel lines needs their sample count");
  if (lines) {
    if (cmd.im != nullptr) das_rows<true, true>(cmd);
    else das_rows<true, false>(cmd);
  } else {
    if (cmd.im != nullptr) das_rows<false, true>(cmd);
    else das_rows<false, false>(cmd);
  }
}

}  // namespace

void CpuDevice::execute(const CommandList& list) {
  for (const Command& cmd : list)
    std::visit([](const auto& c) { run(c); }, cmd);
}

double CpuDevice::estimate_command_seconds(const Command& cmd) {
  return static_cast<double>(command_macs(cmd)) / kMacsPerSecond +
         kCommandOverheadSeconds;
}

double CpuDevice::estimate_list(const CommandList& list) const {
  double s = kListOverheadSeconds;
  for (const Command& cmd : list) s += estimate_command_seconds(cmd);
  return s;
}

}  // namespace tvbf::device
