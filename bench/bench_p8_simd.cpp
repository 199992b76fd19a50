// P8 -- structure-of-arrays batch engine with lane-parallel RNG.
//
// The claim from DESIGN.md section 10: grouping a batch by (s, t) pair,
// resolving each pair's plan once, and running the pair's draw program 8
// rng lanes at a time beats the scalar per-packet loop by >= 3x on the
// warm single-thread workload of P6 -- while producing bit-identical
// segment output (verified here on every run, not just in the tests).
//
// Arms (per mesh config, single pool thread, warm plan cache):
//   * scalar: route_batch with BatchEngine::kScalar -- the P6 engine;
//   * soa:    route_batch with BatchEngine::kSoa    -- every pair group
//             on the kernel.
// Both arms use the same counter-derived packet_rng streams, so they do
// identical routing work; per-arm minima over interleaved reps are
// compared (noise is strictly additive). A thread sweep of the SoA engine
// is recorded but not gated, and the widened EdgeLoadMap
// difference-array flush is timed on the SoA output.
//
// Three more measurements back the driver's dispatch policy:
//   * crossover rows: SoA time / scalar time per packet by pair-group size
//     k (1, 2, 4, 6, 16) for every kernel -- the measurement behind
//     SoaBatchEngine::Kernel::auto_grouped;
//   * batch.2d64.scaling_eff_t4: t1 / (4 * t4) for kAuto route_batch at
//     the default chunk size on the 2d64 problem (gated only on hosts with
//     >= 4 hardware threads; host.hardware_concurrency is recorded);
//   * batch.2d64.distinct_rdo_auto_vs_scalar: kAuto / kScalar time on 100k
//     all-distinct random-dim-order pairs (kAuto must not group them).
//
// Flags: --packets N (default 100000), --pairs N (default 8192),
//        --reps N (default 5), --metrics-json FILE
//        (also honors OBLV_METRICS_JSON).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/congestion.hpp"
#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/hierarchical.hpp"
#include "routing/registry.hpp"
#include "util/flags.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace oblivious;

// Same workload shape as bench_p6_batch: `packets` demands drawn (with
// repetition) from `pairs` distinct pairs, dense enough that the plan
// cache -- and the driver's pair grouping -- get real reuse.
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

// `packets` demands made of packets / k distinct random pairs, each
// repeated exactly k times, in shuffled order.
RoutingProblem groups_of(const Mesh& mesh, std::size_t packets, std::size_t k) {
  Rng rng(11);
  RoutingProblem p;
  p.demands.reserve(packets);
  const auto nodes = static_cast<std::uint64_t>(mesh.num_nodes());
  std::unordered_set<std::uint64_t> used;
  while (p.demands.size() + k <= packets) {
    const std::uint64_t s = rng.uniform_below(nodes);
    const std::uint64_t t = rng.uniform_below(nodes);
    if (s == t || !used.insert(s * nodes + t).second) continue;
    const Demand pair{static_cast<NodeId>(s), static_cast<NodeId>(t)};
    for (std::size_t j = 0; j < k; ++j) p.demands.push_back(pair);
  }
  for (std::size_t i = p.demands.size(); i > 1; --i) {
    std::swap(p.demands[i - 1], p.demands[rng.uniform_below(i)]);
  }
  return p;
}

// One route_batch call; chunk_size 0 is the driver's default, and
// kWholeBatch makes the whole batch one claim.
constexpr std::size_t kWholeBatch = ~std::size_t{0};

double run_engine(const Router& router, const RoutingProblem& problem,
                  ThreadPool& pool, BatchEngine engine,
                  std::vector<SegmentPath>& out, std::uint64_t& checksum,
                  std::size_t chunk_size = kWholeBatch) {
  WallTimer timer;
  RouteBatchOptions options;
  options.seed = 1;
  options.engine = engine;
  options.validate_demands = false;
  options.chunk_size = chunk_size == kWholeBatch ? problem.size() : chunk_size;
  route_batch(router, std::span<const Demand>(problem.demands), pool, options,
              out);
  checksum += static_cast<std::uint64_t>(out.front().length());
  return timer.elapsed_seconds();
}

double best(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

// Best-of-`reps` times of two arms, interleaved after one warm-up call
// each (plan cache and buffers warm); returns {best a, best b}.
template <typename ArmA, typename ArmB>
std::pair<double, double> paired_best(int reps, const ArmA& a, const ArmB& b) {
  a();
  b();
  std::vector<double> ta;
  std::vector<double> tb;
  for (int r = 0; r < reps; ++r) {
    ta.push_back(a());
    tb.push_back(b());
  }
  return {best(ta), best(tb)};
}

void set_gauge(const std::string& name, double v) {
  // The OBLV_GAUGE_SET macro caches one registry handle per call site, so
  // runtime-composed names need the registry API directly.
  obs::MetricsRegistry::global().gauge(name).set(v);
}

// SoA time / scalar time per packet by pair-group size k, on a one-thread
// pool with the whole batch one claim: kSoa runs every group on the
// kernel, so each row times the kernel itself against the scalar loop.
void report_crossover(int reps, std::uint64_t& checksum) {
  struct Row {
    const char* tag;
    Algorithm algorithm;
    int dim;
    std::int64_t side;
  };
  const Row rows[] = {
      {"hierarchical-2d.256", Algorithm::kHierarchical2d, 2, 256},
      {"hierarchical-2d.64", Algorithm::kHierarchical2d, 2, 64},
      {"access-tree.64", Algorithm::kAccessTree, 2, 64},
      {"hierarchical-nd.64x3", Algorithm::kHierarchicalNd, 3, 64},
      {"hierarchical-nd-frugal.32x3", Algorithm::kHierarchicalNdFrugal, 3, 32},
      {"bounded-valiant.64", Algorithm::kBoundedValiant, 2, 64},
      {"valiant.64", Algorithm::kValiant, 2, 64},
      {"ecube.64", Algorithm::kEcube, 2, 64},
      {"random-dim-order.256", Algorithm::kRandomDimOrder, 2, 256},
  };
  constexpr std::size_t kPackets = 32768;
  const std::size_t ks[] = {1, 2, 4, 6, 16};
  std::cout << "\n-- crossover: soa / scalar time per packet by pair-group "
               "size k (1 thread, whole batch one claim, "
            << kPackets << " packets) --\n";
  Table table({"kernel", "k=1", "k=2", "k=4", "k=6", "k=16"});
  ThreadPool pool(1);
  std::vector<SegmentPath> out;
  for (const Row& row : rows) {
    const Mesh mesh = Mesh::cube(row.dim, row.side);
    const auto router = make_router(row.algorithm, mesh);
    auto& line = table.row().add(row.tag);
    for (const std::size_t k : ks) {
      const RoutingProblem problem = groups_of(mesh, kPackets, k);
      const auto arm = [&](BatchEngine engine) {
        return [&, engine] {
          return run_engine(*router, problem, pool, engine, out, checksum);
        };
      };
      const auto [scalar, soa] =
          paired_best(reps, arm(BatchEngine::kScalar), arm(BatchEngine::kSoa));
      line.add(soa / scalar, 2);
      const std::string tag = std::string(row.tag) + ".k" + std::to_string(k);
      set_gauge("batch.crossover." + tag + ".soa_vs_scalar", soa / scalar);
    }
  }
  table.print(std::cout);
}

void report_config(const std::string& tag, const Router& router,
                   const RoutingProblem& problem, int reps,
                   std::uint64_t& checksum) {
  const std::size_t packets = problem.size();
  ThreadPool pool(1);
  std::vector<SegmentPath> scalar_out;
  std::vector<SegmentPath> soa_out;

  // Warm-up: plan cache to steady state, output/engine buffers grown --
  // and the determinism contract checked on real workload output.
  run_engine(router, problem, pool, BatchEngine::kScalar, scalar_out,
             checksum);
  run_engine(router, problem, pool, BatchEngine::kSoa, soa_out, checksum);
  const bool identical = scalar_out == soa_out;
  if (!identical) {
    std::cout << "ERROR: SoA output differs from scalar output\n";
  }

  std::vector<double> scalar_times;
  std::vector<double> soa_times;
  for (int r = 0; r < reps; ++r) {
    scalar_times.push_back(run_engine(router, problem, pool,
                                      BatchEngine::kScalar, scalar_out,
                                      checksum));
    soa_times.push_back(run_engine(router, problem, pool, BatchEngine::kSoa,
                                   soa_out, checksum));
  }
  const double scalar_best = best(scalar_times);
  const double soa_best = best(soa_times);

  Table table({"arm", "best ms", "packets/s", "vs scalar"});
  const auto row = [&](const std::string& name, double seconds) {
    table.row()
        .add(name)
        .add(seconds * 1e3, 2)
        .add(static_cast<double>(packets) / seconds, 0)
        .add(seconds / scalar_best, 3);
  };
  row("scalar (warm cache)", scalar_best);
  row("soa (warm cache)", soa_best);
  table.print(std::cout);

  // Widened difference-array flush over the batch's own output.
  std::vector<double> flush_times;
  EdgeLoadMap loads(router.mesh());
  for (int r = 0; r < reps; ++r) {
    loads.clear();
    WallTimer timer;
    loads.add_segment_paths(soa_out);
    loads.flush();
    flush_times.push_back(timer.elapsed_seconds());
    checksum += loads.max_load();
  }
  const double flush_best = best(flush_times);
  std::cout << "load accumulate+flush: " << flush_best * 1e3 << " ms\n";

  const auto gauge = [&](const std::string& name, double v) {
    set_gauge("batch." + tag + "." + name, v);
  };
  gauge("scalar_warm_best_seconds", scalar_best);
  gauge("soa_warm_best_seconds", soa_best);
  gauge("soa_vs_scalar_ratio", soa_best / scalar_best);
  gauge("soa_bitidentical", identical ? 1.0 : 0.0);
  gauge("loads_flush_best_seconds", flush_best);

  // SoA thread sweep: recorded, not gated (two-core smoke runners).
  for (const std::size_t threads : {2, 4, 8}) {
    ThreadPool tp(threads);
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      times.push_back(
          run_engine(router, problem, tp, BatchEngine::kSoa, soa_out,
                     checksum));
    }
    const double b = best(times);
    std::cout << "soa x" << threads << ": " << b * 1e3 << " ms ("
              << static_cast<double>(packets) / b << " packets/s)\n";
    gauge("soa_threads" + std::to_string(threads) + "_best_seconds", b);
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

  bench::banner("P8 / SoA batch engine + lane-parallel rng",
                "scalar vs SoA batch inner loop, single warm thread "
                "(gate: 2d64 soa warm <= 0.0448 s/100k -- 3x the committed "
                "P6 scalar baseline -- and bit-identical output)");
  std::cout << "avx2 dispatch active: " << (simd_avx2_enabled() ? "yes" : "no")
            << "\n";
  set_gauge("simd.avx2_active", simd_avx2_enabled() ? 1.0 : 0.0);
  // The multi-thread gates only hold where threads can run in parallel.
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "hardware concurrency: " << cores << "\n";
  set_gauge("host.hardware_concurrency", cores);

  std::uint64_t checksum = 0;

  {
    std::cout << "\n-- 2D 64x64, hierarchical (Section 3) --\n";
    const Mesh mesh = Mesh::cube(2, 64);
    const RoutingProblem problem = repeated_pairs(mesh, packets, pairs);
    const AncestorRouter router(mesh, AncestorRouter::Hierarchy::kAccessGraph);
    report_config("2d64", router, problem, reps, checksum);

    // kAuto at the default chunk size: the call route_batch callers make.
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    std::vector<SegmentPath> out;
    // One arm: `engine` on `pool` at the default chunk size.
    const auto arm = [&](const Router& r, const RoutingProblem& p,
                         ThreadPool& pool, BatchEngine engine) {
      return [&, engine] {
        return run_engine(r, p, pool, engine, out, checksum, 0);
      };
    };
    const auto [t1, t4] =
        paired_best(reps, arm(router, problem, pool1, BatchEngine::kAuto),
                    arm(router, problem, pool4, BatchEngine::kAuto));
    const double efficiency = t1 / (4.0 * t4);
    std::cout << "auto, default chunk: 1 thread " << t1 * 1e3
              << " ms, 4 threads " << t4 * 1e3
              << " ms, efficiency t1/(4*t4) = " << efficiency << "\n";
    set_gauge("batch.2d64.auto_t1_best_seconds", t1);
    set_gauge("batch.2d64.auto_t4_best_seconds", t4);
    set_gauge("batch.2d64.scaling_eff_t4", efficiency);

    // All-distinct random-dim-order pairs: kAuto must stay on the scalar
    // loop, where a packet costs 50-90 ns and grouping cannot pay.
    const RoutingProblem distinct = groups_of(mesh, packets, 1);
    const auto rdo = make_router(Algorithm::kRandomDimOrder, mesh);
    const auto [rdo_scalar, rdo_auto] =
        paired_best(reps, arm(*rdo, distinct, pool1, BatchEngine::kScalar),
                    arm(*rdo, distinct, pool1, BatchEngine::kAuto));
    std::cout << "random-dim-order, " << distinct.size()
              << " distinct pairs, 1 thread: scalar " << rdo_scalar * 1e3
              << " ms, auto " << rdo_auto * 1e3 << " ms\n";
    set_gauge("batch.2d64.distinct_rdo_auto_vs_scalar", rdo_auto / rdo_scalar);
    set_gauge("batch.2d64.plan_cache_bytes",
              static_cast<double>(router.plan_cache().memory_bytes()));
  }
  {
    std::cout << "\n-- 3D 32^3, hierarchical (Section 4) --\n";
    const Mesh mesh = Mesh::cube(3, 32);
    const RoutingProblem problem = repeated_pairs(mesh, packets, pairs);
    const NdRouter router(mesh);
    report_config("3d32", router, problem, reps, checksum);
    set_gauge("batch.3d32.plan_cache_bytes",
              static_cast<double>(router.plan_cache().memory_bytes()));
  }

  report_crossover(std::min(reps, 3), checksum);

  std::cout << "checksum: " << checksum << "\n";
  if (flags.has("metrics-json")) {
    obs::write_metrics_json_file(flags.get("metrics-json", ""),
                                 bench::metrics_labels("bench_p8_simd"),
                                 obs::MetricsRegistry::global().snapshot());
  }
  bench::emit_metrics_json("bench_p8_simd");
  return 0;
}
