// Integration tests across the whole stack: simulate -> ToF -> beamform ->
// metrics, short end-to-end training, quantized pipeline, accelerator
// consistency and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "beamform/das.hpp"
#include "beamform/mvdr.hpp"
#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/resolution.hpp"
#include "models/dataset.hpp"
#include "models/neural_beamformer.hpp"
#include "models/trainer.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/tof.hpp"

namespace tvbf {
namespace {

/// Shared small-scale scene: 16-channel probe, 64 x 16 grid, one cyst in
/// speckle plus a point target. Built once for the whole suite (expensive).
class FullPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    probe_ = new us::Probe(us::Probe::test_probe(16));
    grid_ = new us::ImagingGrid(
        us::ImagingGrid::reduced(*probe_, 64, 16, 12e-3, 26e-3));
    us::SimParams sim = us::SimParams::in_silico();
    sim.max_depth = 30e-3;
    // Cyst phantom.
    Rng rng(11);
    us::Region region;
    region.x_min = probe_->element_x(0) * 1.2;
    region.x_max = probe_->element_x(15) * 1.2;
    region.z_min = 12e-3;
    region.z_max = 26e-3;
    us::SpeckleOptions opt;
    opt.density_per_mm2 = 3.0;
    cyst_ = new us::Cyst{0.0, 19e-3, 2.5e-3};
    const us::Phantom ph = us::make_speckle(region, opt, rng, {*cyst_});
    const us::Acquisition acq = us::simulate_plane_wave(*probe_, ph, 0.0, sim);
    rf_cube_ = new us::TofCube(us::tof_correct(acq, *grid_, {}));
    iq_cube_ = new us::TofCube(us::tof_correct(acq, *grid_, {.analytic = true}));
    // Point phantom for PSF checks.
    const us::Phantom pt = us::make_single_point(19e-3, 0.0, region);
    const us::Acquisition acq_pt =
        us::simulate_plane_wave(*probe_, pt, 0.0, sim);
    rf_point_ = new us::TofCube(us::tof_correct(acq_pt, *grid_, {}));
    iq_point_ =
        new us::TofCube(us::tof_correct(acq_pt, *grid_, {.analytic = true}));
  }

  static void TearDownTestSuite() {
    delete probe_;
    delete grid_;
    delete cyst_;
    delete rf_cube_;
    delete iq_cube_;
    delete rf_point_;
    delete iq_point_;
    probe_ = nullptr;
  }

  static bf::MvdrParams mvdr_params() {
    bf::MvdrParams p;
    p.subaperture = 8;
    return p;
  }

  static us::Probe* probe_;
  static us::ImagingGrid* grid_;
  static us::Cyst* cyst_;
  static us::TofCube* rf_cube_;
  static us::TofCube* iq_cube_;
  static us::TofCube* rf_point_;
  static us::TofCube* iq_point_;
};

us::Probe* FullPipeline::probe_ = nullptr;
us::ImagingGrid* FullPipeline::grid_ = nullptr;
us::Cyst* FullPipeline::cyst_ = nullptr;
us::TofCube* FullPipeline::rf_cube_ = nullptr;
us::TofCube* FullPipeline::iq_cube_ = nullptr;
us::TofCube* FullPipeline::rf_point_ = nullptr;
us::TofCube* FullPipeline::iq_point_ = nullptr;

TEST_F(FullPipeline, DasResolvesCystWithPositiveContrast) {
  const bf::DasBeamformer das(*probe_);
  const Tensor env = metrics::envelope_of_iq(das.beamform(*rf_cube_));
  const auto m = metrics::contrast_metrics(env, *grid_, *cyst_);
  EXPECT_GT(m.cr_db, 5.0);   // anechoic cyst clearly visible
  EXPECT_GT(m.gcnr, 0.3);
}

TEST_F(FullPipeline, MvdrImprovesContrastOverDas) {
  const bf::DasBeamformer das(*probe_);
  const bf::MvdrBeamformer mvdr(mvdr_params());
  const Tensor env_das = metrics::envelope_of_iq(das.beamform(*rf_cube_));
  const Tensor env_mvdr = metrics::envelope_of_iq(mvdr.beamform(*iq_cube_));
  const auto m_das = metrics::contrast_metrics(env_das, *grid_, *cyst_);
  const auto m_mvdr = metrics::contrast_metrics(env_mvdr, *grid_, *cyst_);
  // The paper's Table I shape: MVDR CR > DAS CR.
  EXPECT_GT(m_mvdr.cr_db, m_das.cr_db);
}

TEST_F(FullPipeline, MvdrSharpensPsf) {
  const bf::DasBeamformer das(*probe_);
  const bf::MvdrBeamformer mvdr(mvdr_params());
  const Tensor env_das = metrics::envelope_of_iq(das.beamform(*rf_point_));
  const Tensor env_mvdr = metrics::envelope_of_iq(mvdr.beamform(*iq_point_));
  const auto w_das = metrics::psf_widths(env_das, *grid_, 0.0, 19e-3, 2.0);
  const auto w_mvdr = metrics::psf_widths(env_mvdr, *grid_, 0.0, 19e-3, 2.0);
  ASSERT_TRUE(w_das.valid && w_mvdr.valid);
  EXPECT_LE(w_mvdr.lateral_mm, w_das.lateral_mm);
}

TEST_F(FullPipeline, TrainedTinyVbfApproachesMvdrLabel) {
  // Train briefly on this very scene and verify the prediction moves toward
  // the MVDR label (the paper's training objective).
  models::TrainingFrame frame;
  frame.input = models::normalized_input(*rf_cube_);
  const bf::MvdrBeamformer mvdr(mvdr_params());
  Tensor label = mvdr.beamform(*iq_cube_);
  const float m = max_abs(label);
  for (auto& v : label.data()) v /= m;
  frame.target_iq = label;

  Rng rng(21);
  const models::TinyVbf model(models::TinyVbfConfig::test(16, 16), rng);
  const Tensor before = model.infer(frame.input);
  const float err_before = max_abs_diff(before, frame.target_iq);

  models::TrainOptions opt;
  opt.epochs = 60;
  opt.initial_lr = 3e-3;
  opt.final_lr = 1e-4;
  const auto rep = models::train_model(
      [&](const Tensor& in) { return model.forward(nn::constant(in)); },
      model.parameters(), {frame}, models::TargetKind::kIq, opt);
  const Tensor after = model.infer(frame.input);
  const float err_after = max_abs_diff(after, frame.target_iq);
  EXPECT_LT(rep.final_loss, rep.epoch_loss.front() * 0.3);
  EXPECT_LT(err_after, err_before);
}

TEST_F(FullPipeline, QuantizedPipelinePreservesImageAt24Bits) {
  Rng rng(22);
  const auto model = std::make_shared<models::TinyVbf>(
      models::TinyVbfConfig::test(16, 16), rng);
  const Tensor input = models::normalized_input(*rf_cube_);
  const Tensor ref = model->infer(input);
  const quant::QuantizedTinyVbf q24(*model, quant::QuantScheme::uniform(24));
  const quant::QuantizedTinyVbf q12(*model, quant::QuantScheme::uniform(12));
  const double err24 = quant::relative_quant_error(ref, q24.infer(input));
  const double err12 = quant::relative_quant_error(ref, q12.infer(input));
  EXPECT_LT(err24, 0.01);
  EXPECT_GT(err12, err24);
}

TEST_F(FullPipeline, DeadChannelsDegradeGracefully) {
  // Failure injection: zero out a quarter of the channels; DAS must still
  // produce a finite image with the cyst visible.
  us::TofCube damaged = *rf_cube_;
  const std::int64_t nch = damaged.channels();
  for (std::int64_t p = 0; p < damaged.nz() * damaged.nx(); ++p)
    for (std::int64_t e = 0; e < nch / 4; ++e)
      damaged.real.raw()[p * nch + e] = 0.0f;
  const bf::DasBeamformer das(*probe_);
  const Tensor env = metrics::envelope_of_iq(das.beamform(damaged));
  for (float v : env.data()) EXPECT_TRUE(std::isfinite(v));
  const auto m = metrics::contrast_metrics(env, *grid_, *cyst_);
  EXPECT_GT(m.cr_db, 2.0);
}

TEST_F(FullPipeline, SaturatedRfStillFinite) {
  // Clip the RF hard (ADC saturation) and verify the chain stays finite.
  us::TofCube clipped = *rf_cube_;
  const float limit = 0.2f * max_abs(clipped.real);
  for (auto& v : clipped.real.data())
    v = std::clamp(v, -limit, limit);
  const bf::DasBeamformer das(*probe_);
  const Tensor env = metrics::envelope_of_iq(das.beamform(clipped));
  for (float v : env.data()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(max_value(env), 0.0f);
}

TEST_F(FullPipeline, InVitroPresetDegradesContrastVsInSilico) {
  // Matches the paper's sim-vs-phantom gap: noisy, attenuated acquisitions
  // yield lower CR than clean ones for the same scene.
  Rng rng(33);
  us::Region region;
  region.x_min = probe_->element_x(0) * 1.2;
  region.x_max = probe_->element_x(15) * 1.2;
  region.z_min = 12e-3;
  region.z_max = 26e-3;
  us::SpeckleOptions opt;
  opt.density_per_mm2 = 3.0;
  const us::Cyst cyst{0.0, 19e-3, 2.5e-3};
  Rng r1(44), r2(44);
  const us::Phantom ph1 = us::make_speckle(region, opt, r1, {cyst});
  us::SimParams silico = us::SimParams::in_silico();
  silico.max_depth = 30e-3;
  us::SimParams vitro = us::SimParams::in_vitro();
  vitro.max_depth = 30e-3;
  vitro.snr_db = 20.0;
  const bf::DasBeamformer das(*probe_);
  const auto env_s = metrics::envelope_of_iq(das.beamform(
      us::tof_correct(us::simulate_plane_wave(*probe_, ph1, 0.0, silico),
                      *grid_, {})));
  const auto env_v = metrics::envelope_of_iq(das.beamform(
      us::tof_correct(us::simulate_plane_wave(*probe_, ph1, 0.0, vitro),
                      *grid_, {})));
  const auto m_s = metrics::contrast_metrics(env_s, *grid_, cyst);
  const auto m_v = metrics::contrast_metrics(env_v, *grid_, cyst);
  EXPECT_GT(m_s.cr_db, m_v.cr_db);
}

TEST(FailureInjection, EmptyPhantomRejectedEarly) {
  const us::Probe probe = us::Probe::test_probe(8);
  us::Phantom empty;
  EXPECT_THROW(
      us::simulate_plane_wave(empty.scatterers.empty() ? probe : probe, empty,
                              0.0, us::SimParams::in_silico()),
      InvalidArgument);
}

TEST(FailureInjection, DegenerateGridRejected) {
  us::ImagingGrid g;
  g.nz = 0;
  EXPECT_THROW(g.validate(), InvalidArgument);
  g = us::ImagingGrid{};
  g.z0 = -1e-3;
  EXPECT_THROW(g.validate(), InvalidArgument);
}

}  // namespace
}  // namespace tvbf
