// How much does obliviousness cost? Routes one workload three ways --
// the offline optimizer with full knowledge of the traffic, the paper's
// oblivious algorithm, and deterministic e-cube -- and shows the edge-load
// heatmaps side by side. The offline optimum hugs the lower bound; the
// oblivious algorithm pays a log-factor premium for knowing nothing; the
// deterministic router leaves a visible hot ridge.
//
//   ./offline_vs_oblivious [side] [seed]
#include <cstdlib>
#include <iostream>

#include "analysis/evaluate.hpp"
#include "analysis/heatmap.hpp"
#include "offline/greedy.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace oblivious;
  const std::int64_t side = argc > 1 ? std::atoll(argv[1]) : 32;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  const Mesh mesh = Mesh::cube(2, side);
  const RoutingProblem problem = transpose(mesh);
  const double lb = best_lower_bound(mesh, problem);
  std::cout << "network : " << mesh.describe() << "\n"
            << "workload: transpose (" << problem.size() << " packets)\n"
            << "C* bound: >= " << lb << "\n\n";

  Table table({"router", "knowledge", "C", "C/C*"});

  // Offline: sees all demands, iterates to a congestion-game equilibrium.
  OfflineOptions off;
  off.seed = seed;
  const OfflineResult offline = offline_route(mesh, problem, off);
  table.row()
      .add("offline best-response")
      .add("all packets")
      .add(offline.congestion)
      .add(static_cast<double>(offline.congestion) / lb, 2);
  EdgeLoadMap offline_loads(mesh);
  offline_loads.add_paths(offline.paths);

  // Oblivious: each packet alone.
  const auto hier = make_router(Algorithm::kHierarchical2d, mesh);
  ThreadPool pool(1);
  RouteBatchOptions options;
  options.seed = seed;
  std::vector<Path> hier_paths;
  route_batch_paths(*hier, problem.demands, pool, options, hier_paths);
  EdgeLoadMap hier_loads(mesh);
  hier_loads.add_paths(hier_paths);
  table.row()
      .add("hierarchical-2d (oblivious)")
      .add("own (s,t) only")
      .add(static_cast<std::int64_t>(hier_loads.max_load()))
      .add(static_cast<double>(hier_loads.max_load()) / lb, 2);

  // Deterministic: not even random bits.
  const auto ecube = make_router(Algorithm::kEcube, mesh);
  std::vector<Path> ecube_paths;
  route_batch_paths(*ecube, problem.demands, pool, options, ecube_paths);
  EdgeLoadMap ecube_loads(mesh);
  ecube_loads.add_paths(ecube_paths);
  table.row()
      .add("ecube (deterministic)")
      .add("own (s,t), no bits")
      .add(static_cast<std::int64_t>(ecube_loads.max_load()))
      .add(static_cast<double>(ecube_loads.max_load()) / lb, 2);

  table.print(std::cout);

  std::cout << "\necube load (note the diagonal ridge):\n"
            << render_load_heatmap(ecube_loads, 32);
  std::cout << "\nhierarchical-2d load (spread, no structure):\n"
            << render_load_heatmap(hier_loads, 32);
  std::cout << "\noffline load (flattened to near the bound):\n"
            << render_load_heatmap(offline_loads, 32);
  return 0;
}
