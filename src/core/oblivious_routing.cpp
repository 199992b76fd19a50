#include "core/oblivious_routing.hpp"

#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"

namespace oblivious {

ObliviousMeshRouting::ObliviousMeshRouting(Mesh mesh, Algorithm algorithm)
    : mesh_(std::move(mesh)),
      algorithm_(algorithm),
      router_(make_router(algorithm, mesh_)) {}

Path ObliviousMeshRouting::route_one(NodeId s, NodeId t, std::uint64_t seed) const {
  Rng rng(seed);
  return router_->route(s, t, rng);
}

RoutingRun ObliviousMeshRouting::route(const RoutingProblem& problem,
                                       std::uint64_t seed) const {
  // evaluate and route_batch_paths draw packet i from the same stream, so
  // the metrics describe exactly the returned paths.
  RoutingRun run;
  RouteAllOptions options;
  options.seed = seed;
  run.metrics = evaluate(mesh_, *router_, problem, options);
  ThreadPool inline_pool(1);
  RouteBatchOptions batch;
  batch.seed = seed;
  route_batch_paths(*router_, problem.demands, inline_pool, batch, run.paths);
  return run;
}

SegmentRoutingRun ObliviousMeshRouting::route_segments(
    const RoutingProblem& problem, ThreadPool& pool,
    std::uint64_t seed) const {
  SegmentRoutingRun run;
  run.metrics = route_and_measure_parallel(mesh_, *router_, problem,
                                           best_lower_bound(mesh_, problem),
                                           pool, seed, {}, &run.paths);
  return run;
}

SimulationResult ObliviousMeshRouting::deliver(
    const std::vector<Path>& paths, const SimulationOptions& options) const {
  return simulate(mesh_, paths, options);
}

SimulationResult ObliviousMeshRouting::route_and_deliver(
    const RoutingProblem& problem, std::uint64_t seed,
    const SimulationOptions& options) const {
  return deliver(route(problem, seed).paths, options);
}

}  // namespace oblivious
