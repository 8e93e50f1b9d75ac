// Host and build fingerprint printed with every result.
#pragma once

#include <string>

namespace perfbench {

/// JSON object: nproc, cpu_model, compiler, build_type, kernel_simd,
/// commit (PERFBENCH_COMMIT from the environment, else "unknown") and
/// pool_threads.
std::string fingerprint_json();

}  // namespace perfbench
