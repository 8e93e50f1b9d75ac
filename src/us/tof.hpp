// Time-of-flight correction: channel RF -> per-pixel aligned channel cube.
//
// This is the shared front end of every beamformer in the paper (DAS, MVDR,
// FCNN, Tiny-CNN and Tiny-VBF all consume ToF-corrected data): for each
// pixel and element, the two-way propagation delay under the plane-wave
// transmit is computed and the channel signal is sampled there.
#pragma once

#include "tensor/tensor.hpp"
#include "dsp/interpolate.hpp"
#include "us/grid.hpp"
#include "us/simulator.hpp"

namespace tvbf::us {

/// ToF-corrected data cube over a pixel grid.
/// `real` has shape (nz, nx, nch). When built from the analytic signal,
/// `imag` has the same shape; otherwise it is empty.
struct TofCube {
  Tensor real;
  Tensor imag;
  ImagingGrid grid;

  bool is_analytic() const { return !imag.empty(); }
  std::int64_t nz() const { return real.dim(0); }
  std::int64_t nx() const { return real.dim(1); }
  std::int64_t channels() const { return real.dim(2); }
};

/// ToF correction options.
struct TofParams {
  dsp::Interp interp = dsp::Interp::kLinear;
  /// When true, channels are converted to their analytic signal before
  /// sampling, producing a complex cube (required by MVDR).
  bool analytic = false;
};

/// Computes the two-way delay [s] from plane-wave transmit to pixel (x, z)
/// and back to an element at lateral position xe.
double two_way_delay(double x, double z, double xe, double sin_theta,
                     double cos_theta, double tx_offset, double sound_speed);

/// Builds the ToF-corrected cube of `acq` over `grid`. Internally this
/// builds a geometric us::TofPlan and applies it to the frame; streaming
/// callers should fetch the plan from us::PlanCache once and apply it per
/// frame instead of paying the geometry pass every call.
TofCube tof_correct(const Acquisition& acq, const ImagingGrid& grid,
                    const TofParams& params = {});

}  // namespace tvbf::us
