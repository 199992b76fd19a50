// E9 -- the comparison with Maggs et al. [9] (related work): the access
// *tree* achieves the same congestion guarantee but unbounded stretch;
// the paper's access *graph* (bridge submeshes) caps stretch at 64.
//
// Workload: packets between neighbors straddling the top-level bisector --
// distance 1, but their only common type-1 ancestor is the root. Expected
// shape: access-tree mean path length grows ~linearly with the side while
// hierarchical-2d stays constant; congestion stays comparable on global
// traffic (random permutation).
#include <iostream>

#include "analysis/evaluate.hpp"
#include "bench_common.hpp"
#include "routing/registry.hpp"
#include "util/ascii_chart.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace oblivious;
  bench::banner("E9 / access tree vs access graph",
                "bridges bound the stretch; the tree does not");

  std::cout << "Bisector-straddling neighbors (distance 1):\n";
  Table table({"mesh", "tree: mean |p|", "tree: max |p|", "graph: mean |p|",
               "graph: max |p|", "bound"});
  for (const std::int64_t side : {16, 32, 64, 128, 256}) {
    const Mesh mesh({side, side});
    const RoutingProblem problem = cut_straddlers(mesh);
    double mean_len[2];
    std::int64_t max_len[2];
    int i = 0;
    for (const Algorithm a :
         {Algorithm::kAccessTree, Algorithm::kHierarchical2d}) {
      const auto router = make_router(a, mesh);
      const std::vector<Path> paths =
          bench::route_paths(*router, problem, /*seed=*/7);
      double total = 0;
      std::int64_t worst = 0;
      for (const Path& p : paths) {
        total += static_cast<double>(p.length());
        worst = std::max(worst, p.length());
      }
      mean_len[i] = total / static_cast<double>(paths.size());
      max_len[i] = worst;
      ++i;
    }
    table.row()
        .add(mesh.describe())
        .add(mean_len[0], 1)
        .add(max_len[0])
        .add(mean_len[1], 1)
        .add(max_len[1])
        .add("64");
  }
  table.print(std::cout);

  // Figure-style view of the headline: mean path length of distance-1
  // straddler packets as the mesh grows.
  {
    std::vector<std::string> labels;
    ChartSeries tree{"access-tree mean |p|", {}, 'T'};
    ChartSeries graph{"access-graph mean |p| (bound 64)", {}, 'G'};
    for (std::size_t i = 0; i < table.num_rows(); ++i) {
      const auto& row = table.row_at(i);
      labels.push_back(std::to_string(16LL << i));
      tree.ys.push_back(std::stod(row[1]));
      graph.ys.push_back(std::stod(row[3]));
    }
    AsciiChart chart(labels, 14);
    chart.add_series(tree);
    chart.add_series(graph);
    std::cout << "\n" << chart.render();
  }

  std::cout << "\nCongestion parity on global traffic (random permutation):\n";
  Table parity({"mesh", "C tree", "C graph", "C* >="});
  for (const std::int64_t side : {32, 64}) {
    const Mesh mesh({side, side});
    Rng rng(9);
    const RoutingProblem problem = random_permutation(mesh, rng);
    const double lb = best_lower_bound(mesh, problem);
    std::int64_t c[2];
    int i = 0;
    for (const Algorithm a :
         {Algorithm::kAccessTree, Algorithm::kHierarchical2d}) {
      const auto router = make_router(a, mesh);
      RouteAllOptions options;
      options.seed = 7;
      c[i++] = evaluate_with_bound(mesh, *router, problem, lb, options).congestion;
    }
    parity.row().add(mesh.describe()).add(c[0]).add(c[1]).add(lb, 1);
  }
  parity.print(std::cout);
  bench::note(
      "\nExpected: tree path lengths double when the side doubles (stretch\n"
      "unbounded, exactly the [9] behaviour); graph path lengths are flat\n"
      "and <= 64. On global permutations the two have comparable congestion\n"
      "-- the bridges cost nothing.");
  return 0;
}
