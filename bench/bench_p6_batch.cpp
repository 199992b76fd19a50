// P6 -- zero-allocation batch routing engine.
//
// Three claims from the scratch/plan-cache/batch work, measured on the
// same style of workload as P4/P5 (100k packets, hierarchical routers):
//   * scratch:   route_segments_into with a reused RouteScratch beats the
//     allocating route_segments twin (which pays a fresh scratch + output
//     buffer per packet);
//   * plan cache: a warm chain memo beats rebuilding the bitonic chain
//     per packet -- the headline gate is warm-scratch time <= 0.67x the
//     allocating path (>= 1.5x throughput);
//   * batch:     route_batch over a thread pool scales the sequential
//     throughput near-linearly (recorded as gauges; not CI-gated because
//     the smoke runners have two cores).
// The workload repeats 100k packets over a fixed pool of distinct pairs so
// the warm arms actually hit the plan cache; the cold arms run against a
// deliberately tiny cache (forced eviction) to approximate the
// cache-less allocating engine this PR replaces. Per-arm minima over
// interleaved reps are compared, as in P5: noise is strictly additive.
//
// Flags: --packets N (default 100000), --pairs N (default 8192),
//        --reps N (default 5), --metrics-json FILE
//        (also honors OBLV_METRICS_JSON).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/hierarchical.hpp"
#include "routing/route_scratch.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace {

using namespace oblivious;

// `packets` demands drawn (with repetition) from `pairs` distinct pairs:
// dense enough that a default-capacity plan cache converges to ~100% hits.
RoutingProblem repeated_pairs(const Mesh& mesh, std::size_t packets,
                              std::size_t pairs) {
  Rng rng(7);
  std::vector<Demand> pool;
  pool.reserve(pairs);
  const auto nodes = static_cast<std::uint64_t>(mesh.num_nodes());
  while (pool.size() < pairs) {
    const auto s = static_cast<NodeId>(rng.uniform_below(nodes));
    const auto t = static_cast<NodeId>(rng.uniform_below(nodes));
    if (s != t) pool.push_back({s, t});
  }
  RoutingProblem p;
  p.demands.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    p.demands.push_back(pool[rng.uniform_below(pairs)]);
  }
  return p;
}

// One sequential pass with the ALLOCATING api (fresh scratch + output per
// packet, exactly what every caller paid before this engine existed).
double run_alloc(const Router& router, const RoutingProblem& problem,
                 std::uint64_t& checksum) {
  WallTimer timer;
  Rng rng(1);
  for (const Demand& d : problem.demands) {
    checksum += static_cast<std::uint64_t>(
        router.route_segments(d.src, d.dst, rng).length());
  }
  return timer.elapsed_seconds();
}

// One sequential pass with the scratch-threaded api.
double run_scratch(const Router& router, const RoutingProblem& problem,
                   std::uint64_t& checksum) {
  WallTimer timer;
  Rng rng(1);
  RouteScratch scratch;
  SegmentPath out;
  for (const Demand& d : problem.demands) {
    router.route_segments_into(d.src, d.dst, rng, scratch, out);
    checksum += static_cast<std::uint64_t>(out.length());
  }
  return timer.elapsed_seconds();
}

// One pass through the batch driver on `threads` pool threads.
double run_batch(const Router& router, const RoutingProblem& problem,
                 ThreadPool& pool, std::vector<SegmentPath>& out,
                 std::uint64_t& checksum) {
  WallTimer timer;
  RouteBatchOptions options;
  options.seed = 1;
  route_batch(router, std::span<const Demand>(problem.demands), pool, options,
              out);
  checksum += static_cast<std::uint64_t>(out.front().length());
  return timer.elapsed_seconds();
}

double best(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

struct ArmTimes {
  std::vector<double> alloc, cold, warm;
};

// Interleaves the three sequential arms; `cold_router` carries the tiny
// thrashing cache, `warm_router` the default one (pre-warmed by the
// caller's first rep).
ArmTimes run_sequential_arms(const Router& cold_router,
                             const Router& warm_router,
                             const RoutingProblem& problem, int reps,
                             std::uint64_t& checksum) {
  ArmTimes t;
  for (int r = 0; r < reps; ++r) {
    t.alloc.push_back(run_alloc(cold_router, problem, checksum));
    t.cold.push_back(run_scratch(cold_router, problem, checksum));
    t.warm.push_back(run_scratch(warm_router, problem, checksum));
  }
  return t;
}

void report_config(const std::string& tag, const Router& cold_router,
                   const Router& warm_router, const PlanCache& warm_cache,
                   const RoutingProblem& problem, int reps,
                   std::uint64_t& checksum) {
  const std::size_t packets = problem.size();
  // Warm-up: grows buffers, populates both caches to steady state.
  run_alloc(cold_router, problem, checksum);
  run_scratch(cold_router, problem, checksum);
  run_scratch(warm_router, problem, checksum);

  const ArmTimes t =
      run_sequential_arms(cold_router, warm_router, problem, reps, checksum);
  const double alloc_best = best(t.alloc);
  const double cold_best = best(t.cold);
  const double warm_best = best(t.warm);

  Table table({"arm", "best ms", "packets/s", "vs alloc"});
  const auto row = [&](const std::string& name, double seconds) {
    table.row()
        .add(name)
        .add(seconds * 1e3, 2)
        .add(static_cast<double>(packets) / seconds, 0)
        .add(seconds / alloc_best, 3);
  };
  row("alloc (tiny cache)", alloc_best);
  row("scratch (tiny cache)", cold_best);
  row("scratch (warm cache)", warm_best);
  table.print(std::cout);

  const PlanCache::Stats stats = warm_cache.stats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  const double hit_rate =
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
  std::cout << "warm cache hit rate: " << hit_rate * 100.0 << "%\n";

  // The OBLV_GAUGE_SET macro caches one registry handle per call site, so
  // runtime-composed names need the registry API directly.
  auto& registry = obs::MetricsRegistry::global();
  const auto gauge = [&](const std::string& name, double v) {
    registry.gauge("batch." + tag + "." + name).set(v);
  };
  gauge("alloc_best_seconds", alloc_best);
  gauge("scratch_cold_best_seconds", cold_best);
  gauge("scratch_warm_best_seconds", warm_best);
  gauge("scratch_vs_alloc_ratio", cold_best / alloc_best);
  gauge("warm_vs_alloc_ratio", warm_best / alloc_best);
  gauge("plan_cache_hit_rate", hit_rate);
  gauge("plan_cache_bytes", static_cast<double>(warm_cache.memory_bytes()));

  // Thread sweep through the batch driver (warm router). Recorded, not
  // gated: smoke runners have two cores.
  std::vector<SegmentPath> out;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      times.push_back(run_batch(warm_router, problem, pool, out, checksum));
    }
    const double b = best(times);
    std::cout << "route_batch x" << threads << ": " << b * 1e3 << " ms ("
              << static_cast<double>(packets) / b << " packets/s)\n";
    gauge("batch_threads" + std::to_string(threads) + "_best_seconds", b);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags =
      Flags::parse(argc, argv, {"packets", "pairs", "reps", "metrics-json"});
  const auto packets =
      static_cast<std::size_t>(flags.get_int("packets", 100000));
  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs", 8192));
  const int reps = std::max<int>(1, static_cast<int>(flags.get_int("reps", 5)));

  bench::banner("P6 / zero-allocation batch routing",
                "scratch vs allocating, warm vs cold plan cache, and the "
                "route_batch thread sweep (gate: warm <= 0.67x alloc)");

  std::uint64_t checksum = 0;

  {
    std::cout << "\n-- 2D 64x64, hierarchical (Section 3) --\n";
    const Mesh mesh = Mesh::cube(2, 64);
    const RoutingProblem problem = repeated_pairs(mesh, packets, pairs);
    const AncestorRouter cold(mesh, AncestorRouter::Hierarchy::kAccessGraph,
                              /*plan_cache_capacity=*/4);
    const AncestorRouter warm(mesh, AncestorRouter::Hierarchy::kAccessGraph);
    report_config("2d64", cold, warm, warm.plan_cache(), problem, reps,
                  checksum);
  }
  {
    std::cout << "\n-- 3D 32^3, hierarchical (Section 4) --\n";
    const Mesh mesh = Mesh::cube(3, 32);
    const RoutingProblem problem = repeated_pairs(mesh, packets, pairs);
    const NdRouter cold(mesh, NdRouter::RandomnessMode::kNaive,
                        NdRouter::BridgeHeightMode::kPrescribed,
                        /*plan_cache_capacity=*/4);
    const NdRouter warm(mesh);
    report_config("3d32", cold, warm, warm.plan_cache(), problem, reps,
                  checksum);
  }

  std::cout << "checksum: " << checksum << "\n";
  if (flags.has("metrics-json")) {
    obs::write_metrics_json_file(flags.get("metrics-json", ""),
                                 bench::metrics_labels("bench_p6_batch"),
                                 obs::MetricsRegistry::global().snapshot());
  }
  bench::emit_metrics_json("bench_p6_batch");
  return 0;
}
