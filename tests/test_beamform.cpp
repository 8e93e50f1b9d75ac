// Tests for the classical beamformers: apodization, DAS, the complex
// Hermitian solver and MVDR — including the key shape property that MVDR
// sharpens the PSF relative to DAS.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "us/apodization.hpp"
#include "beamform/das.hpp"
#include "beamform/hermitian.hpp"
#include "beamform/mvdr.hpp"
#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "metrics/resolution.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/phantom.hpp"
#include "us/simulator.hpp"
#include "us/tof.hpp"

namespace tvbf::bf {
namespace {

using us::Apodization;
using us::ApodizationParams;

TEST(Apodization, WeightsSumToOne) {
  const us::Probe probe = us::Probe::test_probe(32);
  const Apodization apod(probe, {});
  const auto w = apod.weights(0.0, 20e-3);
  ASSERT_EQ(w.size(), 32u);
  double sum = 0.0;
  for (float v : w) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(Apodization, FNumberGrowsApertureWithDepth) {
  const us::Probe probe = us::Probe::test_probe(32);
  ApodizationParams params;
  params.f_number = 2.0;
  const Apodization apod(probe, params);
  auto active = [&](double z) {
    int n = 0;
    for (float v : apod.weights(0.0, z)) n += (v > 0.0f);
    return n;
  };
  EXPECT_LT(active(5e-3), active(20e-3));
}

TEST(Apodization, ZeroFNumberUsesFullAperture) {
  const us::Probe probe = us::Probe::test_probe(16);
  ApodizationParams params;
  params.f_number = 0.0;
  params.window = dsp::WindowKind::kBoxcar;
  const Apodization apod(probe, params);
  const auto w = apod.weights(3e-3, 10e-3);
  for (float v : w) EXPECT_NEAR(v, 1.0 / 16.0, 1e-6);
}

TEST(Apodization, OffCenterPixelShiftsAperture) {
  const us::Probe probe = us::Probe::test_probe(32);
  ApodizationParams params;
  params.f_number = 1.5;
  const Apodization apod(probe, params);
  const auto w_left = apod.weights(probe.element_x(4), 10e-3);
  const auto w_right = apod.weights(probe.element_x(27), 10e-3);
  // The heaviest element should track the pixel.
  const auto argmax = [](const std::vector<float>& w) {
    return std::distance(w.begin(), std::max_element(w.begin(), w.end()));
  };
  EXPECT_LT(argmax(w_left), argmax(w_right));
}

TEST(Apodization, InvalidInputsThrow) {
  const us::Probe probe = us::Probe::test_probe(16);
  ApodizationParams bad;
  bad.f_number = -1.0;
  EXPECT_THROW(Apodization(probe, bad), InvalidArgument);
  const Apodization apod(probe, {});
  EXPECT_THROW(apod.weights(0.0, -1e-3), InvalidArgument);
}

TEST(Hermitian, CholeskySolvesKnownSystem) {
  // A = L L^H with a hand-built HPD matrix.
  ComplexMatrix a(3);
  a.at(0, 0) = {4.0, 0.0};
  a.at(0, 1) = {1.0, -1.0};
  a.at(0, 2) = {0.5, 0.25};
  a.at(1, 0) = std::conj(a.at(0, 1));
  a.at(1, 1) = {5.0, 0.0};
  a.at(1, 2) = {1.0, 0.5};
  a.at(2, 0) = std::conj(a.at(0, 2));
  a.at(2, 1) = std::conj(a.at(1, 2));
  a.at(2, 2) = {6.0, 0.0};
  const std::vector<cd> x_true{{1.0, 2.0}, {-0.5, 0.25}, {3.0, -1.0}};
  // b = A x.
  std::vector<cd> b(3, {0.0, 0.0});
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) b[i] += a.at(i, j) * x_true[j];
  const auto x = solve_hpd(a, b);
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(i)] -
                         x_true[static_cast<std::size_t>(i)]),
                0.0, 1e-10);
}

TEST(Hermitian, RejectsIndefiniteMatrix) {
  ComplexMatrix a(2);
  a.at(0, 0) = {1.0, 0.0};
  a.at(0, 1) = {3.0, 0.0};
  a.at(1, 0) = {3.0, 0.0};
  a.at(1, 1) = {1.0, 0.0};  // eigenvalues 4 and -2
  EXPECT_FALSE(cholesky_inplace(a));
  ComplexMatrix b(2);
  b.at(0, 0) = {1.0, 0.0};
  b.at(1, 1) = {1.0, 0.0};
  EXPECT_THROW(solve_hpd(a, {cd{1, 0}, cd{1, 0}}), InvalidArgument);
}

TEST(Hermitian, Rank1UpdateAndTrace) {
  ComplexMatrix a(2);
  const cd v[] = {{1.0, 1.0}, {2.0, -1.0}};
  a.rank1_update(v, 2.0);
  EXPECT_NEAR(a.at(0, 0).real(), 4.0, 1e-12);   // 2 * |1+i|^2
  EXPECT_NEAR(a.at(1, 1).real(), 10.0, 1e-12);  // 2 * |2-i|^2
  EXPECT_NEAR(a.trace_real(), 14.0, 1e-12);
  // Hermitian symmetry of off-diagonals.
  EXPECT_NEAR(std::abs(a.at(0, 1) - std::conj(a.at(1, 0))), 0.0, 1e-12);
  a.add_diagonal(1.0);
  EXPECT_NEAR(a.trace_real(), 16.0, 1e-12);
}

/// Shared fixture running the full sim -> ToF -> beamform chain once.
class BeamformPipeline : public ::testing::Test {
 protected:
  static constexpr double kPointDepth = 19e-3;

  void SetUp() override {
    probe_ = us::Probe::test_probe(32);
    us::SimParams sim = us::SimParams::in_silico();
    sim.add_noise = false;
    sim.max_depth = 30e-3;
    // Lateral sampling must out-resolve the MVDR mainlobe (~0.4 mm) for
    // the PSF comparisons: 64 columns over the 9.3 mm aperture.
    grid_ = us::ImagingGrid::reduced(probe_, 128, 64, 12e-3, 26e-3);
    const us::Phantom ph = us::make_single_point(kPointDepth);
    acq_ = us::simulate_plane_wave(probe_, ph, 0.0, sim);
    rf_cube_ = us::tof_correct(acq_, grid_, {});
    iq_cube_ = us::tof_correct(acq_, grid_, {.analytic = true});
  }

  us::Probe probe_;
  us::ImagingGrid grid_;
  us::Acquisition acq_;
  us::TofCube rf_cube_;
  us::TofCube iq_cube_;
};

TEST_F(BeamformPipeline, DasPeaksAtPointTarget) {
  const DasBeamformer das(probe_);
  const Tensor iq = das.beamform(rf_cube_);
  ASSERT_EQ(iq.shape(), (Shape{grid_.nz, grid_.nx, 2}));
  const Tensor env = dsp::envelope_iq(iq);
  // Peak pixel should be at the point target location.
  std::int64_t best = 0;
  for (std::int64_t p = 1; p < env.size(); ++p)
    if (env.flat(p) > env.flat(best)) best = p;
  const std::int64_t pz = best / grid_.nx;
  const std::int64_t px = best % grid_.nx;
  EXPECT_NEAR(static_cast<double>(pz), grid_.row_of(kPointDepth), 3.0);
  EXPECT_NEAR(static_cast<double>(px), grid_.column_of(0.0), 1.0);
}

TEST_F(BeamformPipeline, DasAnalyticAndRfPathsAgreeOnEnvelope) {
  const DasBeamformer das(probe_);
  const Tensor env_rf = dsp::envelope_iq(das.beamform(rf_cube_));
  const Tensor env_iq = dsp::envelope_iq(das.beamform(iq_cube_));
  // The two IQ paths (Hilbert after the sum along depth vs Hilbert per
  // channel along time) are equivalent only approximately — peak magnitude
  // must agree within ~25% and peak position must coincide.
  const float peak_rf = max_value(env_rf);
  const float peak_iq = max_value(env_iq);
  EXPECT_NEAR(peak_rf / peak_iq, 1.0, 0.25);
  std::int64_t arg_rf = 0, arg_iq = 0;
  for (std::int64_t p = 1; p < env_rf.size(); ++p) {
    if (env_rf.flat(p) > env_rf.flat(arg_rf)) arg_rf = p;
    if (env_iq.flat(p) > env_iq.flat(arg_iq)) arg_iq = p;
  }
  EXPECT_NEAR(static_cast<double>(arg_rf / grid_.nx),
              static_cast<double>(arg_iq / grid_.nx), 2.0);
}

TEST_F(BeamformPipeline, DasLinearity) {
  // DAS(alpha * cube) == alpha * DAS(cube).
  const DasBeamformer das(probe_);
  us::TofCube scaled = rf_cube_;
  for (auto& v : scaled.real.data()) v *= 2.5f;
  const Tensor a = das.beamform(rf_cube_);
  const Tensor b = das.beamform(scaled);
  EXPECT_TRUE(allclose(scale(a, 2.5f), b, 1e-4f, 1e-4f));
}

TEST_F(BeamformPipeline, MvdrRequiresAnalyticCube) {
  const MvdrBeamformer mvdr;
  EXPECT_THROW(mvdr.beamform(rf_cube_), InvalidArgument);
}

TEST_F(BeamformPipeline, MvdrPeaksAtPointTarget) {
  MvdrParams params;
  params.subaperture = 16;
  const MvdrBeamformer mvdr(params);
  const Tensor env = dsp::envelope_iq(mvdr.beamform(iq_cube_));
  std::int64_t best = 0;
  for (std::int64_t p = 1; p < env.size(); ++p)
    if (env.flat(p) > env.flat(best)) best = p;
  EXPECT_NEAR(static_cast<double>(best / grid_.nx), grid_.row_of(kPointDepth),
              3.0);
  EXPECT_NEAR(static_cast<double>(best % grid_.nx), grid_.column_of(0.0), 1.0);
}

TEST_F(BeamformPipeline, MvdrNarrowsLateralPsfVsDas) {
  // The core image-quality relationship the paper builds on (Fig 12).
  const DasBeamformer das(probe_);
  const MvdrBeamformer mvdr;
  const Tensor env_das = dsp::envelope_iq(das.beamform(rf_cube_));
  const Tensor env_mvdr = dsp::envelope_iq(mvdr.beamform(iq_cube_));
  const auto w_das =
      metrics::psf_widths(env_das, grid_, 0.0, kPointDepth, 2.0);
  const auto w_mvdr =
      metrics::psf_widths(env_mvdr, grid_, 0.0, kPointDepth, 2.0);
  ASSERT_TRUE(w_das.valid);
  ASSERT_TRUE(w_mvdr.valid);
  EXPECT_LT(w_mvdr.lateral_mm, w_das.lateral_mm);
}

TEST_F(BeamformPipeline, MvdrParameterValidation) {
  EXPECT_THROW(MvdrBeamformer({.subaperture = -1}), InvalidArgument);
  EXPECT_THROW(MvdrBeamformer({.diagonal_loading = -0.5}), InvalidArgument);
  MvdrParams too_big;
  too_big.subaperture = 64;  // > 32 channels
  const MvdrBeamformer mvdr(too_big);
  EXPECT_THROW(mvdr.beamform(iq_cube_), InvalidArgument);
}

TEST_F(BeamformPipeline, MvdrHandlesSilentRegions) {
  // A cube of zeros (no echoes) must produce a zero image, not NaNs.
  us::TofCube silent = iq_cube_;
  silent.real.fill(0.0f);
  silent.imag.fill(0.0f);
  const MvdrBeamformer mvdr;
  const Tensor iq = mvdr.beamform(silent);
  EXPECT_FLOAT_EQ(max_abs(iq), 0.0f);
}

TEST_F(BeamformPipeline, DasChannelCountMismatchThrows) {
  const DasBeamformer das(us::Probe::test_probe(16));
  EXPECT_THROW(das.beamform(rf_cube_), InvalidArgument);
}

}  // namespace
}  // namespace tvbf::bf
