// P3 -- simulator throughput (google-benchmark): packet-steps per second
// of the batch, cut-through, and online engines.
#include <benchmark/benchmark.h>

#include "analysis/evaluate.hpp"
#include "bench_common.hpp"
#include "routing/registry.hpp"
#include "simulator/cut_through.hpp"
#include "simulator/online.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace oblivious;

const Mesh& mesh_32() {
  static const Mesh mesh = Mesh::cube(2, 32);
  return mesh;
}

const std::vector<Path>& transpose_paths() {
  static const std::vector<Path> paths = [] {
    const auto router = make_router(Algorithm::kHierarchical2d, mesh_32());
    return bench::route_paths(*router, transpose(mesh_32()), /*seed=*/3);
  }();
  return paths;
}

void bm_batch_simulate(benchmark::State& state) {
  std::int64_t total_latency_steps = 0;
  for (auto _ : state) {
    const SimulationResult r = simulate(mesh_32(), transpose_paths());
    benchmark::DoNotOptimize(r.makespan);
    total_latency_steps += r.makespan;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(transpose_paths().size()));
  (void)total_latency_steps;
}
BENCHMARK(bm_batch_simulate);

void bm_cut_through_simulate(benchmark::State& state) {
  CutThroughOptions options;
  options.flits_per_packet = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_cut_through(mesh_32(), transpose_paths(), options).makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(transpose_paths().size()));
}
BENCHMARK(bm_cut_through_simulate)->Arg(1)->Arg(8);

void bm_online_simulate(benchmark::State& state) {
  const auto router = make_router(Algorithm::kHierarchical2d, mesh_32());
  Rng wrng(7);
  const OnlineWorkload workload = bernoulli_arrivals(
      mesh_32(), 0.02, 64, TrafficPattern::kLocal, wrng, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_online(mesh_32(), *router, workload).delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.packets.size()));
}
BENCHMARK(bm_online_simulate);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  oblivious::bench::emit_metrics_json("bench_p3_simulator");
  return 0;
}
