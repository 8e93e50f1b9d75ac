#include "fingerprint.hpp"

#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/parallel.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string fingerprint_json() {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"compiler\": " + json_string(compiler());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"kernel_simd\": " + json_string(PERFBENCH_KERNEL_SIMD);
  out += ", \"commit\": " +
         json_string(commit != nullptr && *commit != '\0' ? commit : "unknown");
  out += ", \"pool_threads\": " + std::to_string(tvbf::hardware_threads());
  return out + "}";
}

}  // namespace perfbench
