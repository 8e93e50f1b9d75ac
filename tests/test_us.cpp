// Tests for the ultrasound acquisition substrate: probe geometry, pulse,
// phantoms, the plane-wave RF simulator, grid and ToF correction.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/grid.hpp"
#include "us/phantom.hpp"
#include "us/probe.hpp"
#include "us/pulse.hpp"
#include "us/simulator.hpp"
#include "us/tof.hpp"

namespace tvbf::us {
namespace {

TEST(Probe, GeometryIsCentered) {
  Probe p = Probe::l11_5v();
  EXPECT_EQ(p.num_elements, 128);
  EXPECT_NEAR(p.element_x(0), -p.element_x(127), 1e-12);
  EXPECT_NEAR(p.element_x(64) - p.element_x(63), p.pitch, 1e-12);
  EXPECT_NEAR(p.aperture(), 127 * 0.3e-3, 1e-9);
  EXPECT_THROW(p.element_x(-1), InvalidArgument);
  EXPECT_THROW(p.element_x(128), InvalidArgument);
}

TEST(Probe, ValidationCatchesBadConfigs) {
  Probe p;
  p.num_elements = 1;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = Probe{};
  p.sampling_frequency = p.center_frequency;  // below Nyquist
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = Probe{};
  p.element_width = p.pitch * 2;  // elements overlap
  EXPECT_THROW(p.validate(), InvalidArgument);
  EXPECT_NO_THROW(Probe::test_probe(16).validate());
}

TEST(Pulse, PeaksAtZeroAndDecays) {
  const Pulse p(5e6, 0.67);
  EXPECT_NEAR(p(0.0), 1.0, 1e-12);
  EXPECT_GT(std::fabs(p(0.0)), std::fabs(p(p.sigma())));
  EXPECT_FLOAT_EQ(static_cast<float>(p(p.half_support() * 1.01)), 0.0f);
}

TEST(Pulse, BandwidthSetsSigma) {
  // Wider bandwidth => shorter pulse.
  const Pulse narrow(5e6, 0.3);
  const Pulse wide(5e6, 1.0);
  EXPECT_GT(narrow.sigma(), wide.sigma());
  EXPECT_THROW(Pulse(0.0, 0.5), InvalidArgument);
  EXPECT_THROW(Pulse(5e6, 2.5), InvalidArgument);
}

TEST(Phantom, SpeckleDensityAndExclusion) {
  Rng rng(1);
  Region region;
  region.x_min = -10e-3;
  region.x_max = 10e-3;
  region.z_min = 10e-3;
  region.z_max = 30e-3;
  const Cyst cyst{0.0, 20e-3, 4e-3};
  SpeckleOptions opt;
  opt.density_per_mm2 = 1.0;
  const Phantom ph = make_speckle(region, opt, rng, {cyst});
  // Area 20 x 20 mm => ~400 scatterers.
  EXPECT_NEAR(static_cast<double>(ph.size()), 400.0, 60.0);
  for (const auto& s : ph.scatterers) {
    EXPECT_TRUE(region.contains(s.x, s.z));
    const double d2 = (s.x - cyst.x) * (s.x - cyst.x) +
                      (s.z - cyst.z) * (s.z - cyst.z);
    EXPECT_GE(d2, cyst.radius * cyst.radius);
  }
}

TEST(Phantom, ContrastPresetPlacesCysts) {
  Rng rng(2);
  const Phantom ph = make_contrast_phantom(rng);
  ASSERT_EQ(ph.cysts.size(), 3u);
  EXPECT_NEAR(ph.cysts[0].z, 13e-3, 1e-9);
  EXPECT_NEAR(ph.cysts[2].z, 37e-3, 1e-9);
  EXPECT_GT(ph.size(), 1000);
}

TEST(Phantom, ContrastRejectsCystOutsideRegion) {
  Rng rng(3);
  EXPECT_THROW(make_contrast_phantom(rng, {100e-3}), InvalidArgument);
}

TEST(Phantom, ResolutionPresetPlacesPointRows) {
  const Phantom ph = make_resolution_phantom({15e-3, 35e-3}, 5, 24e-3);
  EXPECT_EQ(ph.size(), 10);
  EXPECT_EQ(ph.points.size(), 10u);
  EXPECT_NEAR(ph.points.front().x, -12e-3, 1e-9);
  EXPECT_NEAR(ph.points[4].x, 12e-3, 1e-9);
  EXPECT_THROW(make_resolution_phantom({}, 3), InvalidArgument);
}

TEST(Phantom, SinglePointAndBounds) {
  const Phantom ph = make_single_point(20e-3);
  EXPECT_EQ(ph.size(), 1);
  EXPECT_THROW(make_single_point(500e-3), InvalidArgument);
}

TEST(Phantom, RandomTrainingPhantomIsReproducible) {
  Rng a(77), b(77);
  const Phantom p1 = make_random_training_phantom(a);
  const Phantom p2 = make_random_training_phantom(b);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::int64_t i = 0; i < p1.size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.scatterers[static_cast<std::size_t>(i)].x,
                     p2.scatterers[static_cast<std::size_t>(i)].x);
  }
}

TEST(SimParams, Presets) {
  const SimParams silico = SimParams::in_silico();
  const SimParams vitro = SimParams::in_vitro();
  EXPECT_GT(silico.snr_db, vitro.snr_db);
  EXPECT_EQ(silico.attenuation_db_cm_mhz, 0.0);
  EXPECT_GT(vitro.attenuation_db_cm_mhz, 0.0);
  EXPECT_GT(vitro.channel_gain_sigma, 0.0);
}

class SimulatorTest : public ::testing::Test {
 protected:
  Probe probe_ = Probe::test_probe(16);
  SimParams clean_ = [] {
    SimParams p = SimParams::in_silico();
    p.add_noise = false;
    p.max_depth = 30e-3;
    return p;
  }();
};

TEST_F(SimulatorTest, RejectsBadInput) {
  Phantom empty;
  EXPECT_THROW(simulate_plane_wave(probe_, empty, 0.0, clean_),
               InvalidArgument);
  const Phantom ph = make_single_point(20e-3);
  SimParams bad = clean_;
  bad.max_depth = -1.0;
  EXPECT_THROW(simulate_plane_wave(probe_, ph, 0.0, bad), InvalidArgument);
  EXPECT_THROW(simulate_plane_wave(probe_, ph, 1.5, clean_), InvalidArgument);
}

TEST_F(SimulatorTest, EchoArrivesAtExpectedSample) {
  // Point at (0, z0): center elements receive the echo at t = 2 z0 / c.
  const double z0 = 20e-3;
  const Phantom ph = make_single_point(z0);
  const Acquisition acq = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const std::int64_t e = probe_.num_elements / 2;  // near the array center
  const double xe = probe_.element_x(e);
  const double expected_t =
      (z0 + std::sqrt(xe * xe + z0 * z0)) / probe_.sound_speed;
  // Find the envelope peak of that channel.
  std::int64_t peak_i = 0;
  float peak_v = 0.0f;
  for (std::int64_t i = 0; i < acq.num_samples(); ++i) {
    const float v = std::fabs(acq.rf.at(i, e));
    if (v > peak_v) {
      peak_v = v;
      peak_i = i;
    }
  }
  const double peak_t = static_cast<double>(peak_i) / probe_.sampling_frequency;
  EXPECT_NEAR(peak_t, expected_t, 0.3e-6);  // within a couple of periods
  EXPECT_GT(peak_v, 0.0f);
}

TEST_F(SimulatorTest, FarElementsReceiveLater) {
  const Phantom ph = make_single_point(15e-3);
  const Acquisition acq = simulate_plane_wave(probe_, ph, 0.0, clean_);
  auto peak_time = [&](std::int64_t e) {
    std::int64_t pi = 0;
    float pv = 0.0f;
    for (std::int64_t i = 0; i < acq.num_samples(); ++i) {
      const float v = std::fabs(acq.rf.at(i, e));
      if (v > pv) {
        pv = v;
        pi = i;
      }
    }
    return pi;
  };
  // Edge elements are farther from the on-axis point than center elements.
  EXPECT_GT(peak_time(0), peak_time(probe_.num_elements / 2));
  EXPECT_GT(peak_time(probe_.num_elements - 1),
            peak_time(probe_.num_elements / 2));
}

TEST_F(SimulatorTest, AmplitudeScalesLinearly) {
  Phantom ph1 = make_single_point(20e-3);
  Phantom ph2 = ph1;
  ph2.scatterers[0].amplitude = 2.0;
  const Acquisition a1 = simulate_plane_wave(probe_, ph1, 0.0, clean_);
  const Acquisition a2 = simulate_plane_wave(probe_, ph2, 0.0, clean_);
  EXPECT_NEAR(max_abs(a2.rf), 2.0f * max_abs(a1.rf), 1e-5f * max_abs(a2.rf));
}

TEST_F(SimulatorTest, NoiseRaisesFloor) {
  const Phantom ph = make_single_point(20e-3);
  SimParams noisy = clean_;
  noisy.add_noise = true;
  noisy.snr_db = 10.0;
  const Acquisition a_clean = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const Acquisition a_noisy = simulate_plane_wave(probe_, ph, 0.0, noisy);
  // Clean RF is exactly zero before the first echo; noisy RF is not.
  double clean_head = 0.0, noisy_head = 0.0;
  for (std::int64_t i = 0; i < 50; ++i)
    for (std::int64_t e = 0; e < probe_.num_elements; ++e) {
      clean_head += std::fabs(a_clean.rf.at(i, e));
      noisy_head += std::fabs(a_noisy.rf.at(i, e));
    }
  EXPECT_EQ(clean_head, 0.0);
  EXPECT_GT(noisy_head, 0.0);
}

TEST_F(SimulatorTest, AttenuationReducesDeepEchoesWithoutTgc) {
  const Phantom ph = make_single_point(25e-3);
  SimParams att = clean_;
  att.attenuation_db_cm_mhz = 0.7;
  att.apply_tgc = false;
  const Acquisition a0 = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const Acquisition a1 = simulate_plane_wave(probe_, ph, 0.0, att);
  EXPECT_LT(max_abs(a1.rf), max_abs(a0.rf));
}

TEST_F(SimulatorTest, TgcRestoresDeepEchoAmplitude) {
  const Phantom ph = make_single_point(25e-3);
  SimParams att = clean_;
  att.attenuation_db_cm_mhz = 0.7;
  att.apply_tgc = true;
  const Acquisition a0 = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const Acquisition a1 = simulate_plane_wave(probe_, ph, 0.0, att);
  // Receive-chain TGC compensates the mean round-trip loss; the deep echo
  // amplitude must land within ~20% of the attenuation-free acquisition.
  EXPECT_NEAR(max_abs(a1.rf) / max_abs(a0.rf), 1.0, 0.2);
}

TEST_F(SimulatorTest, SteeredWaveShiftsArrival) {
  // With positive steering the wavefront reaches +x scatterers later than
  // with normal incidence (relative to the t=0 reference at the first
  // insonified element).
  Phantom ph = make_single_point(20e-3, 5e-3);
  const Acquisition a0 = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const Acquisition a1 = simulate_plane_wave(probe_, ph, 0.1, clean_);
  auto peak_index = [&](const Acquisition& a) {
    std::int64_t pi = 0;
    float pv = 0.0f;
    const std::int64_t e = probe_.num_elements / 2;
    for (std::int64_t i = 0; i < a.num_samples(); ++i) {
      const float v = std::fabs(a.rf.at(i, e));
      if (v > pv) {
        pv = v;
        pi = i;
      }
    }
    return pi;
  };
  EXPECT_NE(peak_index(a0), peak_index(a1));
}

TEST(Grid, PaperDimensionsAndMapping) {
  const Probe probe = Probe::l11_5v();
  const ImagingGrid g = ImagingGrid::paper(probe);
  EXPECT_EQ(g.nz, 368);
  EXPECT_EQ(g.nx, 128);
  EXPECT_NEAR(g.x0, probe.element_x(0), 1e-12);
  EXPECT_NEAR(g.x_end(), probe.element_x(127), 1e-9);
  EXPECT_EQ(g.column_of(g.x_at(17)), 17);
  EXPECT_EQ(g.row_of(g.z_at(100)), 100);
  EXPECT_EQ(g.column_of(-1.0), 0);
  EXPECT_EQ(g.column_of(1.0), g.nx - 1);
  EXPECT_NO_THROW(g.validate());
}

TEST(Grid, ColumnAndRowClampToEdges) {
  const ImagingGrid g = ImagingGrid::reduced(Probe::test_probe(16), 64, 32);
  // Far outside on both sides: clamped to the first/last pixel.
  EXPECT_EQ(g.column_of(g.x0 - 1.0), 0);
  EXPECT_EQ(g.column_of(g.x_end() + 1.0), g.nx - 1);
  EXPECT_EQ(g.row_of(0.0), 0);
  EXPECT_EQ(g.row_of(g.z_end() + 1.0), g.nz - 1);
  // Just beyond the last pixel by half a spacing still clamps.
  EXPECT_EQ(g.column_of(g.x_end() + 10.0 * g.dx), g.nx - 1);
  EXPECT_EQ(g.row_of(g.z0 - 10.0 * g.dz), 0);
  // Nearest-neighbor rounding between pixels.
  EXPECT_EQ(g.column_of(g.x_at(3) + 0.49 * g.dx), 3);
  EXPECT_EQ(g.column_of(g.x_at(3) + 0.51 * g.dx), 4);
  EXPECT_EQ(g.row_of(g.z_at(7) + 0.49 * g.dz), 7);
  EXPECT_EQ(g.row_of(g.z_at(7) + 0.51 * g.dz), 8);
}

TEST(Grid, OnePixelGridIsValid) {
  ImagingGrid g;
  g.nx = 1;
  g.nz = 1;
  g.x0 = 2e-3;
  g.z0 = 20e-3;
  g.dx = 0.3e-3;
  g.dz = 0.1e-3;
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_pixels(), 1);
  EXPECT_EQ(g.x_end(), g.x0);
  EXPECT_EQ(g.z_end(), g.z0);
  // Every query lands on the only pixel.
  for (const double x : {-1.0, g.x0, g.x0 + 5.0 * g.dx, 1.0})
    EXPECT_EQ(g.column_of(x), 0);
  for (const double z : {1e-6, g.z0, g.z0 + 5.0 * g.dz, 1.0})
    EXPECT_EQ(g.row_of(z), 0);
  // The factory helpers still require >= 2 pixels per axis.
  EXPECT_THROW(ImagingGrid::reduced(Probe::test_probe(16), 1, 1),
               InvalidArgument);
}

TEST(Grid, ReducedAndValidation) {
  const Probe probe = Probe::test_probe(16);
  const ImagingGrid g = ImagingGrid::reduced(probe, 64, 32, 8e-3, 30e-3);
  EXPECT_EQ(g.num_pixels(), 64 * 32);
  EXPECT_NEAR(g.z0, 8e-3, 1e-12);
  EXPECT_NEAR(g.z_end(), 30e-3, 1e-9);
  EXPECT_THROW(ImagingGrid::reduced(probe, 1, 32), InvalidArgument);
  ImagingGrid bad = g;
  bad.dz = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

class TofTest : public ::testing::Test {
 protected:
  Probe probe_ = Probe::test_probe(16);
  SimParams clean_ = [] {
    SimParams p = SimParams::in_silico();
    p.add_noise = false;
    p.max_depth = 30e-3;
    return p;
  }();
  ImagingGrid grid_ = ImagingGrid::reduced(probe_, 96, 32, 10e-3, 28e-3);
};

TEST_F(TofTest, AlignsEchoAcrossChannels) {
  // After ToF correction, the scatterer pixel should hold near-peak values
  // on every channel simultaneously (that is the point of the correction).
  const double z0 = 20e-3;
  const Phantom ph = make_single_point(z0);
  const Acquisition acq = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const TofCube cube = tof_correct(acq, grid_, {});
  const std::int64_t iz = grid_.row_of(z0);
  const std::int64_t ix = grid_.column_of(0.0);
  // Sum across channels at the point pixel is large (coherent)...
  double coherent = 0.0;
  for (std::int64_t e = 0; e < probe_.num_elements; ++e)
    coherent += cube.real.at(iz, ix, e);
  // ... and much larger than at a pixel 3 mm above.
  const std::int64_t iz_off = grid_.row_of(z0 - 3e-3);
  double off = 0.0;
  for (std::int64_t e = 0; e < probe_.num_elements; ++e)
    off += cube.real.at(iz_off, ix, e);
  EXPECT_GT(std::fabs(coherent), 10.0 * std::fabs(off));
}

TEST_F(TofTest, AnalyticCubeCarriesEnvelopeInfo) {
  const Phantom ph = make_single_point(18e-3);
  const Acquisition acq = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const TofCube cube = tof_correct(acq, grid_, {.analytic = true});
  ASSERT_TRUE(cube.is_analytic());
  ASSERT_EQ(cube.imag.shape(), cube.real.shape());
  // |analytic| at the point pixel must dominate a far-away pixel.
  const std::int64_t iz = grid_.row_of(18e-3), ix = grid_.column_of(0.0);
  const std::int64_t jz = grid_.row_of(26e-3), jx = grid_.column_of(4e-3);
  double mag_pt = 0.0, mag_off = 0.0;
  for (std::int64_t e = 0; e < probe_.num_elements; ++e) {
    mag_pt += std::hypot(cube.real.at(iz, ix, e), cube.imag.at(iz, ix, e));
    mag_off += std::hypot(cube.real.at(jz, jx, e), cube.imag.at(jz, jx, e));
  }
  EXPECT_GT(mag_pt, 20.0 * mag_off);
}

TEST_F(TofTest, CubicInterpolationCloseToLinear) {
  const Phantom ph = make_single_point(20e-3);
  const Acquisition acq = simulate_plane_wave(probe_, ph, 0.0, clean_);
  const TofCube lin = tof_correct(acq, grid_, {});
  const TofCube cub =
      tof_correct(acq, grid_, {.interp = dsp::Interp::kCubic});
  // RF oscillates near fc, so the two interpolants can differ noticeably at
  // isolated samples; they must still agree at the 25%-of-peak level.
  const float scale = max_abs(lin.real);
  EXPECT_LT(max_abs_diff(lin.real, cub.real), 0.25f * scale);
  EXPECT_GT(scale, 0.0f);
}

TEST_F(TofTest, RejectsEmptyAcquisition) {
  Acquisition acq;
  acq.probe = probe_;
  EXPECT_THROW(tof_correct(acq, grid_, {}), InvalidArgument);
}

TEST(TwoWayDelay, NormalIncidenceFormula) {
  const double c = 1540.0;
  const double d = two_way_delay(2e-3, 30e-3, -1e-3, 0.0, 1.0, 0.0, c);
  const double expected =
      (30e-3 + std::sqrt(9e-6 + 900e-6)) / c;
  EXPECT_NEAR(d, expected, 1e-12);
}

}  // namespace
}  // namespace tvbf::us
