// perfbench: paper-scale imaging benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload in this process and prints two lines on stdout: a
// details object (host fingerprint, sample counts, checks) and, last, the
// result object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any frame failed its output check, 2 on bad arguments or an
// error. See perfbench/README.md for the workloads and metric definitions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "serve/server.hpp"
#include "workloads.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {das_stream,vbf_stream,qvbf_stream,"
               "scanner_mix} --seed N --seconds S --trace 0|1 [--out DIR]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (std::strcmp(argv[i], "--out") == 0 && has_value) {
      opt.out_dir = argv[++i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_workload || !(opt.seconds > 0.0)) {
    usage(argv[0]);
    return 2;
  }

  try {
    // The allocator tuning the program's serving entry points apply (see
    // serve::tune_allocator); solo and served figures then share it.
    tvbf::serve::tune_allocator();
    const perfbench::RunResult result =
        opt.workload == "scanner_mix" ? perfbench::run_scanner_mix(opt)
                                      : perfbench::run_solo(opt);
    std::printf("{%s, \"samples\": %s}\n", result.details.c_str(),
                perfbench::sample_counts_json(result).c_str());
    std::printf("%s\n", perfbench::result_line(result, opt.trace).c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
