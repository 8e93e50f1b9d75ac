// Reference CPU backend.
//
// Executes every command with the blocked kernels in src/kernels/ and the
// exact loop structures (chunking, grain sizes, double accumulators) the
// pre-refactor callers used inline, so output through CpuDevice is
// bit-identical to the old direct-call paths — test_device gates this.
//
// The cost model is deliberately NOT tied to the host (hardware_threads,
// clock): a fixed documented MAC throughput plus small per-command and
// per-list overheads, so CpuDevice estimates (and the measured-vs-estimate
// telemetry built on them) are deterministic across machines.
#pragma once

#include "device/device.hpp"

namespace tvbf::device {

class CpuDevice : public Device {
 public:
  /// Modeled sustained MAC throughput (order-of-magnitude for a desktop
  /// core complex running the blocked f32 kernels).
  static constexpr double kMacsPerSecond = 20e9;
  /// Modeled per-command dispatch overhead (kernel entry, pool fan-out).
  static constexpr double kCommandOverheadSeconds = 2e-6;
  /// Modeled per-list overhead (allocation, graph-node bookkeeping around
  /// one dispatched op group).
  static constexpr double kListOverheadSeconds = 20e-6;

  std::string name() const override { return "cpu"; }

  /// Prices one command on the CPU model (compute + per-command overhead).
  static double estimate_command_seconds(const Command& cmd);

 protected:
  void execute(const CommandList& list) override;
  double estimate_list(const CommandList& list) const override;
};

}  // namespace tvbf::device
