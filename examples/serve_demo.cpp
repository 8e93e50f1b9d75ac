// Multi-session imaging server demo: four concurrent streams — two DAS
// cine loops (one RF, one analytic), plus two Tiny-VBF sessions sharing one
// model — each writing its B-mode frames through its own AsyncSink writer
// thread.
//
//   ./serve_demo [--frames N] [--angles N] [--out DIR] [--drop]
//                [--backend cpu|accel] [--metrics] [--ops-port P]
//
// The report prints one row per session (frames, drops, fps, stage means)
// plus the plan-cache counters. --metrics additionally prints
// the process telemetry table at exit and writes telemetry.json plus a
// Chrome trace.json (load at chrome://tracing) into the output directory.
// --ops-port starts the full ops plane for the run: a localhost
// introspection endpoint (/metrics, /healthz, /sessions, /dump; 0 picks an
// ephemeral port, printed at startup), the stall watchdog, and a crash
// hook + end-of-run flight-recorder dump (flight.json in the output dir).
// The Tiny-VBF model is randomly initialized — this demo exercises the
// serving machinery, not image quality (train_beamformer covers training).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "beamform/compounding.hpp"
#include "beamform/das.hpp"
#include "common/rng.hpp"
#include "accel/accel_device.hpp"
#include "io/writers.hpp"
#include "models/neural_beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/async_sink.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "us/phantom.hpp"

namespace {

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [--frames N] [--angles N] [--out DIR] [--drop]\n"
      "       [--backend cpu|accel] [--metrics] [--ops-port P] [--help]\n"
      "  --frames N  cine frames per session (default 8)\n"
      "  --angles N  steered plane waves compounded per frame (default 1;\n"
      "              N > 1 adds parallel ToF graph nodes per session)\n"
      "  --out DIR   output directory (default serve_out)\n"
      "  --drop      drop-oldest backpressure instead of blocking\n"
      "  --backend B device backend for every session: cpu (reference) or\n"
      "              accel (FPGA cycle model; identical pixels, modeled\n"
      "              latency estimates)\n"
      "  --metrics   print the telemetry table at exit and write\n"
      "              telemetry.json + Chrome trace.json into the output dir\n"
      "  --ops-port P\n"
      "              serve the ops plane on 127.0.0.1:P for the run\n"
      "              (0 = ephemeral, printed at startup): /metrics,\n"
      "              /healthz, /sessions, /dump; plus the stall watchdog\n"
      "              and a flight-recorder dump (flight.json) at exit\n"
      "  --help      show this message\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvbf;
  serve::tune_allocator();
  std::int64_t frames = 8;
  std::int64_t angles = 1;
  std::string out_dir = "serve_out";
  bool drop = false;
  bool metrics = false;
  int ops_port = -1;
  std::string backend = "cpu";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoll(argv[++i]);
      if (frames < 1) {
        std::fprintf(stderr, "%s: --frames needs a positive count\n", argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--angles") == 0 && i + 1 < argc) {
      angles = std::atoll(argv[++i]);
      if (angles < 1) {
        std::fprintf(stderr, "%s: --angles needs a positive count\n", argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--drop") == 0) {
      drop = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--ops-port") == 0 && i + 1 < argc) {
      ops_port = std::atoi(argv[++i]);
      if (ops_port < 0 || ops_port > 65535) {
        std::fprintf(stderr, "%s: --ops-port needs a port in [0, 65535]\n",
                     argv[0]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend = argv[++i];
      if (backend != "cpu" && backend != "accel") {
        std::fprintf(stderr, "%s: --backend must be 'cpu' or 'accel'\n",
                     argv[0]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      print_usage(argv[0]);
      return 1;
    }
  }
  io::ensure_directory(out_dir);

  const us::Probe probe = us::Probe::test_probe(16);
  const us::ImagingGrid grid =
      us::ImagingGrid::reduced(probe, 96, 32, 10e-3, 28e-3);
  us::SimParams sim = us::SimParams::in_silico();
  sim.max_depth = grid.z_end() + 3e-3;

  // One cine source per session, cysts at staggered depths so the four
  // B-mode movies are visibly distinct.
  auto make_cine = [&](int index) {
    Rng rng(100 + index);
    us::Region region{grid.x0, grid.x_end(), grid.z0, grid.z_end()};
    us::SpeckleOptions speckle;
    speckle.density_per_mm2 = 0.8;
    const double span = grid.z_end() - grid.z0;
    const us::Phantom phantom = us::make_contrast_phantom(
        rng, {grid.z0 + (0.3 + 0.12 * index) * span}, 2.2e-3, region,
        speckle);
    rt::CineParams cine;
    cine.num_frames = frames;
    cine.frame_rate_hz = 20.0;
    cine.lateral_speed_m_s = 3e-3;
    cine.axial_amplitude_m = 0.4e-3;
    cine.sim = sim;
    if (angles > 1) {
      bf::CompoundingParams compounding;
      compounding.num_angles = angles;
      cine.compound_angles_rad = compounding.angles();
    }
    return std::make_shared<rt::CineSource>(probe, phantom, cine);
  };

  Rng model_rng(11);
  auto model = std::make_shared<models::TinyVbf>(
      models::TinyVbfConfig::test(probe.num_elements, grid.nx), model_rng);
  auto vbf = std::make_shared<models::TinyVbfBeamformer>(model);
  auto das = std::make_shared<bf::DasBeamformer>(probe);

  rt::PipelineConfig rf_cfg;
  rf_cfg.grid = grid;
  if (backend == "accel") {
    // One shared cycle-model device across the sessions (it is stateless
    // per submission; only its cost model matters to the server).
    rf_cfg.device = std::make_shared<accel::AccelDevice>();
  }
  rt::PipelineConfig analytic_cfg = rf_cfg;
  analytic_cfg.tof.analytic = true;

  struct Stream {
    std::string label;
    std::shared_ptr<const bf::Beamformer> beamformer;
    rt::PipelineConfig config;
  };
  const std::vector<Stream> streams = {
      {"das_rf", das, rf_cfg},
      {"das_iq", das, analytic_cfg},
      {"vbf_a", vbf, rf_cfg},
      {"vbf_b", vbf, rf_cfg},
  };

  serve::ServerConfig server_cfg;
  server_cfg.backpressure =
      drop ? serve::Backpressure::kDropOldest : serve::Backpressure::kBlock;
  const std::string flight_path = out_dir + "/flight.json";
  if (ops_port >= 0) {
    server_cfg.ops_port = ops_port;
    server_cfg.watchdog_stall_s = 5.0;
    server_cfg.watchdog_dump_path = flight_path;
    obs::install_crash_dump(flight_path);
  }
  serve::Server server(server_cfg);

  // One async writer per session: PGM output never blocks the schedulers.
  std::vector<std::unique_ptr<serve::AsyncSink>> sinks;
  for (const Stream& stream : streams) {
    const std::string dir = out_dir + "/" + stream.label;
    io::ensure_directory(dir);
    sinks.push_back(std::make_unique<serve::AsyncSink>(
        [dir](const serve::SinkFrame& frame) {
          char name[64];
          std::snprintf(name, sizeof(name), "/frame_%03lld.pgm",
                        static_cast<long long>(frame.index));
          io::write_pgm_db(dir + name, frame.db, 60.0);
        }));
    server.add_session({make_cine(static_cast<int>(sinks.size()) - 1),
                        stream.beamformer, stream.config,
                        sinks.back()->sink()});
  }

  std::printf("serving %zu sessions x %lld cine frames (%lld channels, "
              "%lld x %lld grid, %lld angle%s/frame, %s backpressure, "
              "%s backend)...\n",
              streams.size(), static_cast<long long>(frames),
              static_cast<long long>(probe.num_elements),
              static_cast<long long>(grid.nz),
              static_cast<long long>(grid.nx), static_cast<long long>(angles),
              angles == 1 ? "" : "s", drop ? "drop-oldest" : "block",
              backend.c_str());

  if (metrics) {
    // Scope the capture to the serve run: fresh instruments, armed trace.
    telemetry::Registry::instance().reset();
    telemetry::trace_start();
  }
  // The endpoint binds inside run() (ephemeral when --ops-port 0), so a
  // short-lived reporter polls for the bound port and prints it.
  std::thread port_reporter;
  if (ops_port >= 0) {
    port_reporter = std::thread([&server] {
      for (int i = 0; i < 200; ++i) {
        if (const int port = server.ops_port(); port >= 0) {
          std::printf("ops endpoint live: curl http://127.0.0.1:%d/metrics "
                      "(/healthz /sessions /dump)\n", port);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      std::printf("ops endpoint did not come up (bind failed?)\n");
    });
  }
  const serve::ServerReport report = server.run();
  for (auto& sink : sinks) sink->close();
  if (port_reporter.joinable()) port_reporter.join();
  if (metrics) telemetry::trace_stop();

  std::printf("\n%lld frames in %.2f s -> %.1f frames/s aggregate "
              "(%lld dropped)\n",
              static_cast<long long>(report.frames), report.wall_s,
              report.aggregate_fps(), static_cast<long long>(report.dropped));
  std::printf("plan cache: %llu hits, %llu misses\n\n",
              static_cast<unsigned long long>(report.plan_cache_hits),
              static_cast<unsigned long long>(report.plan_cache_misses));
  std::printf("%-8s %-18s %7s %7s %8s %8s %8s %8s\n", "session", "beamformer",
              "frames", "dropped", "tof ms", "bf ms", "post ms", "sink ms");
  for (std::size_t s = 0; s < report.sessions.size(); ++s) {
    const auto& sess = report.sessions[s];
    std::printf("%-8s %-18s %7lld %7lld %8.2f %8.2f %8.2f %8.2f\n",
                streams[s].label.c_str(), sess.beamformer.c_str(),
                static_cast<long long>(sess.frames),
                static_cast<long long>(sess.dropped),
                sess.stage("tof").mean_s() * 1e3,
                sess.stage("beamform").mean_s() * 1e3,
                sess.stage("postprocess").mean_s() * 1e3,
                sess.stage("sink").mean_s() * 1e3);
  }
  std::printf("\nwrote %s/<session>/frame_000.pgm ... frame_%03lld.pgm\n",
              out_dir.c_str(), static_cast<long long>(frames - 1));

  if (metrics) {
    const telemetry::Snapshot snap = telemetry::Registry::instance().snapshot();
    std::printf("\n%s", telemetry::render_table(snap).c_str());
    io::write_text(out_dir + "/telemetry.json", telemetry::to_json(snap));
    io::write_text(out_dir + "/trace.json", telemetry::trace_export_json());
    std::printf("wrote %s/telemetry.json and %s/trace.json",
                out_dir.c_str(), out_dir.c_str());
    if (const std::int64_t lost = telemetry::trace_dropped(); lost > 0)
      std::printf(" (%lld spans dropped)", static_cast<long long>(lost));
    std::printf("\n");
  }
  if (ops_port >= 0 && obs::write_flight_dump(flight_path))
    std::printf("wrote %s (flight-recorder dump, %lld events recorded)\n",
                flight_path.c_str(),
                static_cast<long long>(
                    obs::FlightRecorder::instance().total_recorded()));
  return 0;
}
