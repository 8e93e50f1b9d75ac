// Typed command set of the device layer.
//
// Every hot-path operation of the repo — the GEMM family behind the
// tensor/nn/quant matmuls, the SAME-conv2d forward/backward kernels, the
// ToF-plan gather and the fused DAS apply — is expressed as a plain-struct
// command over raw pointers and dimensions. A CommandEncoder records
// commands into a CommandList; a device::Device consumes the list, either
// executing it (CpuDevice, AccelDevice) or pricing it (estimate_seconds,
// which reads only the dimensions — commands encoded with null pointers
// are legal as estimate-only cost probes and must never be submitted).
//
// The command structs sit below every compute module: they depend only on
// kernels/ (Conv2dShape) and common/ (Interp), so tensor, dsp, nn,
// beamform, runtime and serve can all encode against them without cycles.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/interp.hpp"
#include "kernels/conv.hpp"

namespace tvbf::device {

// ---- GEMM family -----------------------------------------------------------

/// C = A.B with a (m, k), b (k, n), c (m, n), all row-major packed.
struct GemmCmd {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0;
};

/// Per-batch C[i] = A[i].B[i] (or A[i].B[i]^T when transpose_b): a is
/// (batch, m, k); b is (batch, k, n), or (batch, n, k) transposed; c is
/// (batch, m, n).
struct BatchedGemmCmd {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t batch = 0, m = 0, k = 0, n = 0;
  bool transpose_b = false;
};

/// C += A^T.B with a (m, k), b (m, n), c (k, n) — the dB shape of the
/// matmul backward pass.
struct GemmTnCmd {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0;
};

// ---- SAME conv2d -----------------------------------------------------------

/// out = conv2d_same(in, kernel); overwrites out.
struct Conv2dForwardCmd {
  const float* in = nullptr;
  const float* kernel = nullptr;
  float* out = nullptr;
  kernels::Conv2dShape shape;
};

/// gb(co) += sum_{h,w} dy(h, w, co).
struct Conv2dBackwardBiasCmd {
  const float* dy = nullptr;
  float* gb = nullptr;
  kernels::Conv2dShape shape;
};

/// gk += d(conv)/d(kernel) contraction of in with dy.
struct Conv2dBackwardKernelCmd {
  const float* in = nullptr;
  const float* dy = nullptr;
  float* gk = nullptr;
  kernels::Conv2dShape shape;
};

/// gx += d(conv)/d(input) contraction of kernel with dy.
struct Conv2dBackwardInputCmd {
  const float* kernel = nullptr;
  const float* dy = nullptr;
  float* gx = nullptr;
  kernels::Conv2dShape shape;
};

// ---- Beamforming -----------------------------------------------------------

/// Gathers a ToF plan over channel-major RF lines into a (nz, nx, nch)
/// cube. idx/frac are the plan tables (nz * nx * nch entries, pixel-major);
/// lines_re/lines_im are (nch, nsamples) contiguous channel lines (im may
/// be null for RF cubes, then out_im must be null too). Entry encoding
/// follows the plan builder's contract exactly:
///   idx == kOutOfRange              -> the sample is 0
///   idx >= 0, interp == kCubic      -> interior Catmull-Rom at idx
///   idx >= 0, interp == kLinear     -> linear at idx
///   idx <= kLinearBias              -> linear fallback at (kLinearBias - idx)
struct TofGatherCmd {
  static constexpr std::int32_t kOutOfRange = -1;
  static constexpr std::int32_t kLinearBias = -2;

  const std::int32_t* idx = nullptr;
  const float* frac = nullptr;
  const float* lines_re = nullptr;
  const float* lines_im = nullptr;
  float* out_re = nullptr;
  float* out_im = nullptr;
  std::int64_t nz = 0, nx = 0, nch = 0, nsamples = 0;
  Interp interp = Interp::kLinear;
};

/// One active (pixel, channel) term of a baked DAS plan: the channel, its
/// ToF entry (idx/frac, encoded exactly as TofGatherCmd's) and its receive
/// apodization weight. Plans store only terms with a non-zero weight, per
/// pixel in ascending channel order.
struct DasEntry {
  std::int32_t channel = 0;
  std::int32_t idx = 0;
  float frac = 0.0f;
  float weight = 0.0f;
};

/// Fused DAS: per pixel, the weighted channel sum over the pixel's entries
/// [offsets[p], offsets[p + 1]) of `entries` (nz * nx + 1 offsets,
/// pixel-major). The input is either
///   kLines: (nch, nsamples) contiguous channel lines, each term gathered
///           inline through the TofGatherCmd encoding with `interp`; or
///   kCube:  a (nz, nx, nch) ToF cube, each term read at its channel (the
///           entries' idx/frac are ignored).
/// re is the real/RF plane, im the imaginary plane or null. out is the
/// (nz, nx) beamformed RF when im is null, interleaved (nz, nx, 2) IQ
/// otherwise. Each pixel accumulates in double, in entry order.
struct DasApplyCmd {
  enum class Input { kLines, kCube };

  Input input = Input::kLines;
  const std::int64_t* offsets = nullptr;
  const DasEntry* entries = nullptr;
  const float* re = nullptr;
  const float* im = nullptr;
  float* out = nullptr;
  std::int64_t nz = 0, nx = 0, nch = 0;
  std::int64_t nsamples = 0;  ///< kLines only
  Interp interp = Interp::kLinear;  ///< kLines only
  std::int64_t num_entries = 0;  ///< offsets[nz * nx]; what the cost counts
};

// ---- Command list / encoder ------------------------------------------------

using Command =
    std::variant<GemmCmd, BatchedGemmCmd, GemmTnCmd, Conv2dForwardCmd,
                 Conv2dBackwardBiasCmd, Conv2dBackwardKernelCmd,
                 Conv2dBackwardInputCmd, TofGatherCmd, DasApplyCmd>;

using CommandList = std::vector<Command>;

/// Records commands in submission order. The encoder is cheap and
/// stack-local by design: encode, finish(), submit.
class CommandEncoder {
 public:
  CommandEncoder& encode(Command cmd) {
    list_.push_back(std::move(cmd));
    return *this;
  }

  CommandEncoder& gemm(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
    return encode(GemmCmd{a, b, c, m, k, n});
  }

  CommandEncoder& batched_gemm(const float* a, const float* b, float* c,
                               std::int64_t batch, std::int64_t m,
                               std::int64_t k, std::int64_t n,
                               bool transpose_b = false) {
    return encode(BatchedGemmCmd{a, b, c, batch, m, k, n, transpose_b});
  }

  CommandEncoder& gemm_tn(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
    return encode(GemmTnCmd{a, b, c, m, k, n});
  }

  std::size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  /// Moves the recorded list out; the encoder is empty afterwards.
  CommandList finish() { return std::move(list_); }

 private:
  CommandList list_;
};

}  // namespace tvbf::device
