// Modeled-accelerator backend.
//
// AccelDevice is the cycle model in src/accel/ wearing the device::Device
// interface: submit() executes on the CPU reference path (outputs stay
// bit-identical to CpuDevice — there is no FPGA to run on, see DESIGN.md),
// while estimate_seconds() prices the list on the 4-PE / 16-MAC array at
// 100 MHz plus a per-list host->accelerator dispatch overhead (DMA of the
// operands and one invocation round trip, paid once per submitted list).
//
// That dispatch term is the main difference from the CPU cost model,
// whose per-list overhead is ~20 us: on the accelerator every submitted
// list pays ~1 ms before its first cycle.
//
// The adapter lives in accel/ (not device/) on purpose: it needs the full
// accelerator simulator, which sits near the top of the layering DAG, while
// device/ is the low-level command boundary every compute module encodes
// against (see tools/check/tvbf-check.conf).
#pragma once

#include "accel/accelerator.hpp"
#include "device/cpu_device.hpp"
#include "device/device.hpp"

namespace tvbf::accel {

class AccelDevice : public device::Device {
 public:
  /// Modeled host->accelerator round trip per submitted command list
  /// (operand DMA + invocation + readback posting), amortized across
  /// everything stacked into the list.
  static constexpr double kDispatchOverheadSeconds = 1e-3;

  explicit AccelDevice(AccelConfig config = {}) : sim_(config) {}

  std::string name() const override { return "accel"; }

  const AcceleratorSim& simulator() const { return sim_; }

  /// Modeled cycles for one command on the PE array.
  std::int64_t command_cycles(const device::Command& cmd) const;

 protected:
  void execute(const device::CommandList& list) override;
  double estimate_list(const device::CommandList& list) const override;

 private:
  AcceleratorSim sim_;
  device::CpuDevice cpu_;  ///< functional execution (bit-identical reference)
};

}  // namespace tvbf::accel
