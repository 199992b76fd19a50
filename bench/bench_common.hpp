// Shared helpers for the experiment harnesses in bench/.
//
// Each bench_e*/bench_fig* binary regenerates one row of the experiment
// index in DESIGN.md: it prints the workload, the measured series, and the
// paper's analytical expectation next to each other. EXPERIMENTS.md
// records the output of a full run.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace oblivious::bench {

namespace detail {
inline std::string& bench_id() {
  static std::string id;
  return id;
}
}  // namespace detail

// The envelope labels of a bench report: the bench id and the host it
// ran on -- its hardware thread count and whether this binary is an
// optimized NDEBUG build ("Release") or not ("Debug") -- so a recorded
// speed claim carries the conditions it was measured under.
inline std::vector<std::pair<std::string, std::string>> metrics_labels(
    const std::string& id) {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif
  const unsigned cores = std::thread::hardware_concurrency();
  return {
      {"bench", id},
      {"hardware_concurrency", std::to_string(cores)},
      {"build_type", build_type},
  };
}

// Writes the standard {"schema", labels, "metrics"} envelope to the path
// named by the OBLV_METRICS_JSON environment variable. No-op when the
// variable is unset, so every bench binary can call this unconditionally.
inline void emit_metrics_json(const std::string& id) {
  const char* path = std::getenv("OBLV_METRICS_JSON");
  if (path == nullptr || *path == '\0') return;
  try {
    obs::write_metrics_json_file(path, metrics_labels(id),
                                 obs::MetricsRegistry::global().snapshot());
  } catch (const std::exception& e) {
    std::cerr << "metrics export failed: " << e.what() << "\n";
  }
}

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "=============================================================\n"
            << id << "\n" << claim << "\n"
            << "=============================================================\n";
  // Every experiment harness announces itself through banner(); piggyback
  // the metrics emitter on it so OBLV_METRICS_JSON works for all of them.
  detail::bench_id() = id;
  static const bool registered = [] {
    std::atexit([] { emit_metrics_json(detail::bench_id()); });
    return true;
  }();
  (void)registered;
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

// Benches honor OBLV_BENCH_SCALE (default 1) to run larger sweeps.
inline int scale() {
  const char* env = std::getenv("OBLV_BENCH_SCALE");
  if (env == nullptr) return 1;
  const int s = std::atoi(env);
  return s >= 1 ? s : 1;
}

// Node-list paths of `problem` for `seed`, routed on the calling thread:
// packet i draws from packet_rng(seed, i), as on every entry point.
inline std::vector<Path> route_paths(const Router& router,
                                     const RoutingProblem& problem,
                                     std::uint64_t seed) {
  ThreadPool inline_pool(1);
  RouteBatchOptions options;
  options.seed = seed;
  std::vector<Path> paths;
  route_batch_paths(router, problem.demands, inline_pool, options, paths);
  return paths;
}

}  // namespace oblivious::bench
