// Equivalence suite for the blocked kernel layer (src/kernels): the tiled
// GEMM and conv2d kernels must match the preserved naive `*_reference`
// implementations across odd shapes — non-multiple-of-tile sizes, single
// channels, 1x1 and 5x5 kernels — and the parallelized backward kernels
// must agree with both the serial references and finite differences. The
// fixed-point quantise kernel must match quant::quantize_value bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quantize.hpp"
#include "quant/fixed_point.hpp"
#include "quant/scheme.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::kernels {
namespace {

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

/// Max |a - b| relative to max |b| over raw buffers.
float rel_err(const Tensor& a, const Tensor& b) {
  float m = 0.0f, scale = 0.0f;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.raw()[i] - b.raw()[i]));
    scale = std::max(scale, std::fabs(b.raw()[i]));
  }
  return scale > 0.0f ? m / scale : m;
}

// ---- GEMM ------------------------------------------------------------------

class GemmShapes : public ::testing::TestWithParam<
                       std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(GemmShapes, BlockedMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm_rows(a.raw(), b.raw(), c.raw(), m, k, n, 0, m);
  gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
  EXPECT_LT(rel_err(c, ref), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 7, 1},
                      std::tuple{3, 5, 2}, std::tuple{4, 16, 16},
                      std::tuple{5, 3, 9}, std::tuple{7, 13, 17},
                      std::tuple{8, 8, 8}, std::tuple{13, 1, 13},
                      std::tuple{17, 31, 15}, std::tuple{33, 65, 33},
                      std::tuple{64, 64, 64}, std::tuple{65, 127, 129},
                      std::tuple{128, 128, 128}, std::tuple{100, 300, 24}));

TEST(Gemm, AccumulateAddsOntoExistingOutput) {
  Rng rng(7);
  const std::int64_t m = 9, k = 21, n = 13;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c = random_tensor({m, n}, rng);
  Tensor expected = c;
  gemm_rows(a.raw(), b.raw(), c.raw(), m, k, n, 0, m, /*accumulate=*/true);
  Tensor prod({m, n});
  gemm_reference_rows(a.raw(), b.raw(), prod.raw(), m, k, n, 0, m);
  add_inplace(expected, prod);
  EXPECT_LT(rel_err(c, expected), 1e-5f);
}

TEST(Gemm, RowRangeTouchesOnlyItsRows) {
  Rng rng(8);
  const std::int64_t m = 11, k = 17, n = 19;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}, 42.0f);
  gemm_rows(a.raw(), b.raw(), c.raw(), m, k, n, 3, 8);
  Tensor ref({m, n});
  gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      if (i < 3 || i >= 8)
        EXPECT_FLOAT_EQ(c.at(i, j), 42.0f) << i << "," << j;
      else
        EXPECT_NEAR(c.at(i, j), ref.at(i, j), 1e-4f) << i << "," << j;
    }
}

TEST(Gemm, ThreadedGemmMatchesReference) {
  Rng rng(9);
  const std::int64_t m = 93, k = 71, n = 55;
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm(a.raw(), b.raw(), c.raw(), m, k, n);
  gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
  EXPECT_LT(rel_err(c, ref), 1e-5f);
}

TEST(Gemm, NtMatchesReferenceWithExplicitTranspose) {
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {3, 8, 5}, {7, 16, 4}, {13, 31, 17}, {32, 64, 32}}) {
    Rng rng(static_cast<std::uint64_t>(m + k + n));
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor bt = random_tensor({n, k}, rng);  // rhs stored transposed
    Tensor c({m, n});
    gemm_nt_rows(a.raw(), bt.raw(), c.raw(), m, k, n, 0, m);
    const Tensor b = transpose(bt);  // (k, n)
    Tensor ref({m, n});
    gemm_reference_rows(a.raw(), b.raw(), ref.raw(), m, k, n, 0, m);
    EXPECT_LT(rel_err(c, ref), 1e-5f) << m << "x" << k << "x" << n;
  }
}

TEST(Gemm, TnAccumulateMatchesReferenceWithExplicitTranspose) {
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {5, 3, 7}, {16, 9, 8}, {31, 13, 27}, {64, 32, 48}}) {
    Rng rng(static_cast<std::uint64_t>(m * 3 + k * 5 + n * 7));
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({m, n}, rng);
    Tensor c({k, n}, 0.5f);  // nonzero start: must accumulate
    Tensor expected = c;
    gemm_tn_accumulate(a.raw(), b.raw(), c.raw(), m, k, n);
    const Tensor at = transpose(a);  // (k, m)
    Tensor prod({k, n});
    gemm_reference_rows(at.raw(), b.raw(), prod.raw(), k, m, n, 0, k);
    add_inplace(expected, prod);
    EXPECT_LT(rel_err(c, expected), 1e-5f) << m << "x" << k << "x" << n;
  }
}

// ---- conv2d ----------------------------------------------------------------

// (H, W, Ci, kh, kw, Co): odd spatial sizes, single channels, 1x1 and 5x5.
const Conv2dShape kConvShapes[] = {
    {.H = 1, .W = 1, .Ci = 1, .kh = 1, .kw = 1, .Co = 1},
    {.H = 5, .W = 3, .Ci = 1, .kh = 3, .kw = 3, .Co = 1},
    {.H = 7, .W = 9, .Ci = 2, .kh = 1, .kw = 1, .Co = 5},
    {.H = 9, .W = 7, .Ci = 3, .kh = 5, .kw = 5, .Co = 2},
    {.H = 13, .W = 11, .Ci = 4, .kh = 3, .kw = 5, .Co = 3},
    {.H = 17, .W = 16, .Ci = 8, .kh = 3, .kw = 3, .Co = 8},
    {.H = 4, .W = 32, .Ci = 16, .kh = 5, .kw = 3, .Co = 4},
    {.H = 2, .W = 2, .Ci = 1, .kh = 5, .kw = 5, .Co = 1},  // kernel > image
};

class ConvShapes : public ::testing::TestWithParam<Conv2dShape> {};

TEST_P(ConvShapes, ForwardMatchesReference) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.H * 100 + s.W * 10 + s.Ci));
  const Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  const Tensor k = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  Tensor out({s.H, s.W, s.Co}), ref({s.H, s.W, s.Co});
  conv2d_same_forward(in.raw(), k.raw(), out.raw(), s);
  conv2d_same_forward_reference(in.raw(), k.raw(), ref.raw(), s);
  EXPECT_LT(rel_err(out, ref), 1e-5f);
}

TEST_P(ConvShapes, BackwardKernelMatchesReference) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.H + s.W * 7 + s.Co * 3));
  const Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);
  Tensor gk({s.kh, s.kw, s.Ci, s.Co}, 0.25f);  // nonzero: must accumulate
  Tensor ref = gk;
  conv2d_same_backward_kernel(in.raw(), dy.raw(), gk.raw(), s);
  conv2d_same_backward_kernel_reference(in.raw(), dy.raw(), ref.raw(), s);
  EXPECT_LT(rel_err(gk, ref), 1e-4f);
}

TEST_P(ConvShapes, BackwardInputMatchesReference) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.H * 3 + s.W + s.Ci * 11));
  const Tensor k = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);
  Tensor gx({s.H, s.W, s.Ci}, -0.5f);
  Tensor ref = gx;
  conv2d_same_backward_input(k.raw(), dy.raw(), gx.raw(), s);
  conv2d_same_backward_input_reference(k.raw(), dy.raw(), ref.raw(), s);
  EXPECT_LT(rel_err(gx, ref), 1e-4f);
}

TEST_P(ConvShapes, BackwardBiasSumsEveryPixel) {
  const Conv2dShape s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.Co * 13 + s.W));
  const Tensor dy = random_tensor({s.H, s.W, s.Co}, rng);
  Tensor gb({s.Co}, 1.0f);
  conv2d_same_backward_bias(dy.raw(), gb.raw(), s);
  for (std::int64_t co = 0; co < s.Co; ++co) {
    double expected = 1.0;
    for (std::int64_t p = 0; p < s.H * s.W; ++p)
      expected += dy.raw()[p * s.Co + co];
    EXPECT_NEAR(gb.at(co), expected, 1e-4) << "co=" << co;
  }
}

INSTANTIATE_TEST_SUITE_P(OddShapes, ConvShapes,
                         ::testing::ValuesIn(kConvShapes));

// ---- finite-difference checks of the parallelized backward kernels --------

TEST(ConvGradients, BackwardKernelsMatchFiniteDifferences) {
  // Independent of the serial references: perturb one element at a time and
  // compare the parallel backward kernels against central differences of
  // the forward pass under the loss L = sum(out * w) with fixed weights w.
  const Conv2dShape s{.H = 5, .W = 4, .Ci = 2, .kh = 3, .kw = 3, .Co = 2};
  Rng rng(99);
  Tensor in = random_tensor({s.H, s.W, s.Ci}, rng);
  Tensor k = random_tensor({s.kh, s.kw, s.Ci, s.Co}, rng);
  const Tensor w = random_tensor({s.H, s.W, s.Co}, rng);

  auto loss = [&] {
    Tensor out({s.H, s.W, s.Co});
    conv2d_same_forward(in.raw(), k.raw(), out.raw(), s);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out.raw()[i]) * w.raw()[i];
    return acc;
  };

  // dL/dout = w feeds both backward kernels.
  Tensor gk({s.kh, s.kw, s.Ci, s.Co});
  Tensor gx({s.H, s.W, s.Ci});
  conv2d_same_backward_kernel(in.raw(), w.raw(), gk.raw(), s);
  conv2d_same_backward_input(k.raw(), w.raw(), gx.raw(), s);

  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < k.size(); ++i) {
    const float orig = k.raw()[i];
    k.raw()[i] = orig + eps;
    const double up = loss();
    k.raw()[i] = orig - eps;
    const double down = loss();
    k.raw()[i] = orig;
    EXPECT_NEAR(gk.raw()[i], (up - down) / (2.0 * eps), 2e-2)
        << "kernel grad " << i;
  }
  for (std::int64_t i = 0; i < in.size(); ++i) {
    const float orig = in.raw()[i];
    in.raw()[i] = orig + eps;
    const double up = loss();
    in.raw()[i] = orig - eps;
    const double down = loss();
    in.raw()[i] = orig;
    EXPECT_NEAR(gx.raw()[i], (up - down) / (2.0 * eps), 2e-2)
        << "input grad " << i;
  }
}

// ---- Fixed-point quantise ---------------------------------------------------

void quantize_with_kernel(float* x, std::int64_t n,
                          const quant::FixedFormat& f) {
  quantize_fixed_inplace(x, n, f.frac_bits, -std::ldexp(1.0, f.bits - 1),
                         std::ldexp(1.0, f.bits - 1) - 1.0);
}

/// Inputs that stress every branch of quantize_value for format f: exact
/// ties at +-(k + 1/2) steps near zero and at both range ends, signed zeros,
/// non-finite values, huge values, subnormals, one step past each range
/// end, and random values inside and beyond the range.
std::vector<float> quantize_probes(const quant::FixedFormat& f, Rng& rng) {
  using lim = std::numeric_limits<float>;
  std::vector<float> v = {0.0f,         -0.0f,           lim::infinity(),
                          -lim::infinity(), lim::quiet_NaN(), -lim::quiet_NaN(),
                          1e30f,        -1e30f,          lim::denorm_min(),
                          -lim::denorm_min(), lim::min() / 4, -lim::min() / 4,
                          lim::min(),   -lim::min(),     lim::max(),
                          lim::lowest()};
  const double step = f.step();
  const double top = std::ldexp(1.0, f.bits - 1);
  auto push_exact = [&](double x) {
    if (static_cast<double>(static_cast<float>(x)) == x)
      v.push_back(static_cast<float>(x));
  };
  for (double k = 0; k < 8; ++k) {
    push_exact((k + 0.5) * step);
    push_exact(-(k + 0.5) * step);
  }
  for (double k = top - 4; k < top + 2; ++k) {
    push_exact((k + 0.5) * step);
    push_exact(-(k + 0.5) * step);
  }
  for (double x : {f.max_value(), f.min_value(), f.max_value() + step,
                   f.min_value() - step})
    v.push_back(static_cast<float>(x));
  for (int i = 0; i < 64; ++i)
    v.push_back(static_cast<float>(
        rng.uniform(1.25 * f.min_value(), 1.25 * f.max_value())));
  for (int i = 0; i < 16; ++i)
    v.push_back(static_cast<float>(rng.uniform(-2.0 * step, 2.0 * step)));
  return v;
}

/// Bitwise comparison (float == would equate -0.0 with 0.0 and fail NaN).
void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want,
                      const std::vector<float>& in, const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " input " << in[i]
                    << " kernel " << got[i] << " quantize_value " << want[i];
      return;
    }
}

std::vector<float> quantize_value_all(const std::vector<float>& in,
                                      const quant::FixedFormat& f) {
  std::vector<float> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = quant::quantize_value(in[i], f);
  return out;
}

std::vector<quant::FixedFormat> quantize_formats() {
  std::vector<quant::FixedFormat> formats;
  for (const auto& s : quant::QuantScheme::paper_levels())
    for (const auto& f : {s.op_format(), s.inter_format(), s.softmax_format()})
      formats.push_back(f);
  for (int frac = 0; frac < 8; ++frac) formats.push_back({8, frac});
  return formats;
}

TEST(Quantize, KernelBitIdenticalToQuantizeValue) {
  Rng rng(11);
  for (const auto& f : quantize_formats()) {
    const std::vector<float> in = quantize_probes(f, rng);
    std::vector<float> got = in;
    quantize_with_kernel(got.data(), static_cast<std::int64_t>(got.size()), f);
    expect_same_bits(got, quantize_value_all(in, f), in,
                     "format {" + std::to_string(f.bits) + ", " +
                         std::to_string(f.frac_bits) + "}");
  }
}

TEST(Quantize, KernelSignedZeroAndNonFiniteSaturation) {
  const quant::FixedFormat f = quant::QuantScheme::hybrid2().op_format();
  using lim = std::numeric_limits<float>;
  std::vector<float> x = {-0.0f, static_cast<float>(-0.25 * f.step()),
                          lim::infinity(), -lim::infinity(), lim::quiet_NaN()};
  quantize_with_kernel(x.data(), static_cast<std::int64_t>(x.size()), f);
  EXPECT_TRUE(std::signbit(x[0]) && x[0] == 0.0f);
  EXPECT_TRUE(std::signbit(x[1]) && x[1] == 0.0f);
  EXPECT_EQ(x[2], static_cast<float>(f.max_value()));
  EXPECT_EQ(x[3], static_cast<float>(f.min_value()));
  EXPECT_EQ(x[4], static_cast<float>(f.min_value()));
}

TEST(Quantize, KernelTailLengthsTouchOnlyTheirRange) {
  // Lengths 0-9 and 16384 + 3 cover the scalar-width tail after the vector
  // body; a sentinel past the end must survive.
  const quant::FixedFormat f = quant::QuantScheme::hybrid2().op_format();
  Rng rng(12);
  const std::vector<float> probes = quantize_probes(f, rng);
  std::vector<std::int64_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  lengths.push_back(16384 + 3);
  constexpr float kSentinel = 1234.5f;
  for (const std::int64_t n : lengths) {
    std::vector<float> in(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = probes[(i * 7 + static_cast<std::size_t>(n)) % probes.size()];
    std::vector<float> got = in;
    got.resize(in.size() + 8, kSentinel);
    quantize_with_kernel(got.data(), n, f);
    for (std::size_t i = in.size(); i < got.size(); ++i)
      EXPECT_EQ(got[i], kSentinel) << "n=" << n << " wrote past the end";
    got.resize(in.size());
    expect_same_bits(got, quantize_value_all(in, f), in,
                     "length " + std::to_string(n));
  }
}

TEST(Quantize, ThreadedTensorPathBitIdenticalAtPoolSizes) {
  // quantize_tensor_inplace splits the tensor across the pool; chunk
  // boundaries must not change a bit.
  const quant::FixedFormat f = quant::QuantScheme::hybrid2().op_format();
  Rng rng(13);
  const std::vector<float> probes = quantize_probes(f, rng);
  std::vector<float> in(3 * 16384 + 5);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = probes[(i * 13) % probes.size()];
  const std::vector<float> want = quantize_value_all(in, f);
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    Tensor t({static_cast<std::int64_t>(in.size())}, in);
    quant::quantize_tensor_inplace(t, f);
    expect_same_bits(std::vector<float>(t.raw(), t.raw() + t.size()), want, in,
                     "pool " + std::to_string(threads));
  }
  set_thread_count(0);
}

}  // namespace
}  // namespace tvbf::kernels
