// Ablation bench (beyond the paper's tables): design choices DESIGN.md
// calls out.
//  1. CPWC angle sweep — the frame-rate/quality trade-off the paper's
//     introduction uses to motivate single-angle learned beamforming.
//  2. DAS apodization window and f-number ablation.
//  3. Coherence-factor DAS as a cheap adaptive middle ground.
//  4. MVDR subaperture sweep (resolution vs speckle statistics).
#include <cstdio>

#include "beamform/coherence_factor.hpp"
#include "beamform/compounding.hpp"
#include "bench_common.hpp"
#include "dsp/hilbert.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/resolution.hpp"

int main(int argc, char** argv) {
  using namespace tvbf;
  const auto scene = benchx::make_scene(benchx::want_full(argc, argv));
  const us::SimParams sim = benchx::sim_preset(scene, /*vitro=*/false);
  const us::Phantom cysts = benchx::contrast_phantom(scene, false);
  const us::Phantom points = benchx::resolution_phantom(scene);

  // --- 1. CPWC angle sweep --------------------------------------------------
  benchx::print_header("CPWC: image quality vs transmit angles (frame-rate "
                       "trade-off)");
  std::printf("%7s %10s %10s %12s %14s\n", "angles", "CR [dB]", "CNR",
              "lat FWHM", "rel frame rate");
  for (std::int64_t n : {1, 3, 5, 9}) {
    bf::CompoundingParams p;
    p.num_angles = n;
    const Tensor iq_c =
        bf::compound_plane_waves(scene.probe, cysts, scene.grid, sim, p);
    const auto m = metrics::mean_contrast(dsp::envelope_iq(iq_c), scene.grid,
                                          cysts.cysts);
    const Tensor iq_p =
        bf::compound_plane_waves(scene.probe, points, scene.grid, sim, p);
    const auto w = metrics::mean_psf_widths(dsp::envelope_iq(iq_p),
                                            scene.grid, points.points, 2.0);
    std::printf("%7lld %10.2f %10.2f %9.3f mm %13.2fx\n",
                static_cast<long long>(n), m.cr_db, m.cnr, w.lateral_mm,
                1.0 / static_cast<double>(n));
  }
  std::printf("(single-angle Tiny-VBF targets the 1-angle row's frame rate "
              "with multi-angle-like quality)\n");

  const us::Acquisition acq =
      us::simulate_plane_wave(scene.probe, cysts, 0.0, sim);
  const us::TofCube rf = us::tof_correct(acq, scene.grid, {});
  const us::TofCube iq_cube =
      us::tof_correct(acq, scene.grid, {.analytic = true});

  // --- 2. DAS apodization ablation -------------------------------------------
  benchx::print_header("DAS apodization ablation (single angle)");
  const us::Acquisition acq_pt =
      us::simulate_plane_wave(scene.probe, points, 0.0, sim);
  const us::TofCube rf_pt = us::tof_correct(acq_pt, scene.grid, {});
  for (const auto& [label, wk, fnum] :
       {std::tuple{"boxcar f/1.75", dsp::WindowKind::kBoxcar, 1.75},
        std::tuple{"hann   f/1.75", dsp::WindowKind::kHann, 1.75},
        std::tuple{"tukey  f/1.75", dsp::WindowKind::kTukey25, 1.75},
        std::tuple{"boxcar f/1.00", dsp::WindowKind::kBoxcar, 1.0},
        std::tuple{"boxcar full  ", dsp::WindowKind::kBoxcar, 0.0}}) {
    us::ApodizationParams ap;
    ap.window = wk;
    ap.f_number = fnum;
    const bf::DasBeamformer das(scene.probe, ap);
    const auto m = metrics::mean_contrast(
        dsp::envelope_iq(das.beamform(rf)), scene.grid, cysts.cysts);
    const auto w = metrics::mean_psf_widths(
        dsp::envelope_iq(das.beamform(rf_pt)), scene.grid, points.points, 2.0);
    std::printf("%s  CR %6.2f dB  CNR %5.2f  lat %6.3f mm\n", label, m.cr_db,
                m.cnr, w.lateral_mm);
  }

  // --- 3. Coherence-factor DAS ----------------------------------------------
  benchx::print_header("Coherence-factor DAS (adaptive, O(N) per pixel)");
  const us::TofCube iq_pt =
      us::tof_correct(acq_pt, scene.grid, {.analytic = true});
  for (double gamma : {0.5, 1.0, 2.0}) {
    const bf::CoherenceFactorBeamformer cf(scene.probe, gamma);
    const auto m = metrics::mean_contrast(
        dsp::envelope_iq(cf.beamform(iq_cube)), scene.grid, cysts.cysts);
    const auto w = metrics::mean_psf_widths(
        dsp::envelope_iq(cf.beamform(iq_pt)), scene.grid, points.points, 2.0);
    std::printf("gamma %.1f  CR %6.2f dB  CNR %5.2f  lat %6.3f mm\n", gamma,
                m.cr_db, m.cnr, w.lateral_mm);
  }

  // --- 4. MVDR subaperture sweep ---------------------------------------------
  benchx::print_header("MVDR subaperture sweep (resolution vs statistics)");
  const std::int64_t nch = scene.probe.num_elements;
  for (std::int64_t L : {nch / 4, 3 * nch / 8, nch / 2, 3 * nch / 4}) {
    bf::MvdrParams mp = scene.mvdr;
    mp.subaperture = L;
    const bf::MvdrBeamformer mvdr(mp);
    const auto m = metrics::mean_contrast(
        dsp::envelope_iq(mvdr.beamform(iq_cube)), scene.grid, cysts.cysts);
    const auto w = metrics::mean_psf_widths(
        dsp::envelope_iq(mvdr.beamform(iq_pt)), scene.grid, points.points,
        2.0);
    std::printf("L = %2lld  CR %6.2f dB  CNR %5.2f  lat %6.3f mm\n",
                static_cast<long long>(L), m.cr_db, m.cnr, w.lateral_mm);
  }
  return 0;
}
