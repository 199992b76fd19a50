// P4 -- segment-path pipeline throughput (google-benchmark).
//
// The end-to-end measurement loop (route every packet, account every edge
// load) in two representations:
//   * node-list:  route() -> Path -> EdgeLoadMap::add_path, O(hops) per
//     packet with one edge-id computation per hop;
//   * segments:   route_segments() -> SegmentPath ->
//     EdgeLoadMap::add_segments, O(#segments) difference-array bumps per
//     packet plus a single prefix-sum flush at the end.
// A one-bend path on a 64x64 mesh is ~43 hops but only ~2 runs, so the
// segment pipeline does ~20x less accounting work and never materializes
// the node list. The `parallel` variant adds deterministic per-packet rng
// streams + sharded accumulators on a thread pool.
//
// Every arm also records its packets/s as the gauge
// p4.<arm>.<algorithm>.packets_per_sec, so the oblv-metrics-v1 report
// carries the whole table. Record with:
//   OBLV_METRICS_JSON=BENCH_p4.json bench/bench_p4_pipeline
//       --benchmark_min_time=2
#include <benchmark/benchmark.h>

#include "analysis/congestion.hpp"
#include "bench_common.hpp"
#include "analysis/evaluate.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace oblivious;

constexpr std::size_t kPackets = 100000;

const Mesh& mesh_64() {
  static const Mesh mesh = Mesh::cube(2, 64);
  return mesh;
}

// 100k random source/destination pairs, fixed across all benchmarks.
const RoutingProblem& problem_100k() {
  static const RoutingProblem problem = [] {
    Rng rng(7);
    RoutingProblem p;
    p.demands.reserve(kPackets);
    const auto nodes = static_cast<std::uint64_t>(mesh_64().num_nodes());
    while (p.demands.size() < kPackets) {
      const auto s = static_cast<NodeId>(rng.uniform_below(nodes));
      const auto t = static_cast<NodeId>(rng.uniform_below(nodes));
      if (s != t) p.demands.push_back({s, t});
    }
    return p;
  }();
  return problem;
}

// Times the benchmark loop of one arm and records its packets/s; the
// last (longest) run of the arm is the one that stays in the gauge.
class ArmRate {
 public:
  ArmRate(benchmark::State& state, const char* arm, Algorithm algorithm)
      : state_(state),
        name_(std::string("p4.") + arm + "." + algorithm_name(algorithm) +
              ".packets_per_sec") {}
  ~ArmRate() {
    const double seconds = timer_.elapsed_seconds();
    const auto packets = static_cast<double>(state_.iterations()) *
                         static_cast<double>(kPackets);
    state_.SetItemsProcessed(static_cast<std::int64_t>(packets));
    if (seconds > 0.0) {
      obs::MetricsRegistry::global().gauge(name_).set(packets / seconds);
    }
  }

 private:
  benchmark::State& state_;
  std::string name_;
  WallTimer timer_;
};

void pipeline_nodelist(benchmark::State& state, Algorithm algorithm) {
  const auto router = make_router(algorithm, mesh_64());
  const ArmRate rate(state, "nodelist", algorithm);
  for (auto _ : state) {
    Rng rng(1);
    EdgeLoadMap loads(mesh_64());
    for (const Demand& d : problem_100k().demands) {
      loads.add_path(router->route(d.src, d.dst, rng));
    }
    benchmark::DoNotOptimize(loads.max_load());
  }
}

void pipeline_segments(benchmark::State& state, Algorithm algorithm) {
  const auto router = make_router(algorithm, mesh_64());
  const ArmRate rate(state, "segments", algorithm);
  for (auto _ : state) {
    Rng rng(1);
    EdgeLoadMap loads(mesh_64());
    for (const Demand& d : problem_100k().demands) {
      loads.add_segments(router->route_segments(d.src, d.dst, rng));
    }
    benchmark::DoNotOptimize(loads.max_load());
  }
}

void pipeline_parallel(benchmark::State& state, Algorithm algorithm) {
  const auto router = make_router(algorithm, mesh_64());
  ThreadPool pool;  // hardware concurrency
  const ArmRate rate(state, "parallel", algorithm);
  for (auto _ : state) {
    const RouteSetMetrics m = route_and_measure_parallel(
        mesh_64(), *router, problem_100k(), /*lower_bound=*/1.0, pool, 1);
    benchmark::DoNotOptimize(m.congestion);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const Algorithm a :
       {Algorithm::kRandomDimOrder, Algorithm::kHierarchicalNd}) {
    const std::string name = algorithm_name(a);
    benchmark::RegisterBenchmark(
        ("pipeline_64x64_100k/nodelist/" + name).c_str(),
        [a](benchmark::State& s) { pipeline_nodelist(s, a); });
    benchmark::RegisterBenchmark(
        ("pipeline_64x64_100k/segments/" + name).c_str(),
        [a](benchmark::State& s) { pipeline_segments(s, a); });
    benchmark::RegisterBenchmark(
        ("pipeline_64x64_100k/parallel/" + name).c_str(),
        [a](benchmark::State& s) { pipeline_parallel(s, a); });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  oblivious::bench::emit_metrics_json("bench_p4_pipeline");
  return 0;
}
