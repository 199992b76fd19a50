// E14 -- the competitive-ratio claim (Section 1 / Related Work): on the
// mesh, distributed oblivious routing is within a logarithmic factor of
// the optimal OFFLINE performance, "hence there is no significant benefit
// from using the offline algorithm".
//
// We route each workload three ways: the boundary lower bound (<= C*), an
// offline best-response optimizer with full knowledge of the traffic
// (>= C*, usually very close to it), and the paper's oblivious algorithm.
// Expected shape: offline lands essentially on the lower bound, and the
// oblivious algorithm is a small (log-factor) multiple above it --
// while needing no knowledge of the other packets at all.
#include <cmath>
#include <iostream>

#include "analysis/evaluate.hpp"
#include "bench_common.hpp"
#include "offline/greedy.hpp"
#include "routing/registry.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace oblivious;
  bench::banner("E14 / oblivious vs offline",
                "oblivious routing is within a log factor of the offline "
                "optimum (and the offline optimum hugs the lower bound)");

  const Mesh mesh({64, 64});
  Rng wrng(5);
  const struct {
    std::string name;
    RoutingProblem problem;
  } workloads[] = {
      {"transpose", transpose(mesh)},
      {"bit-reversal", bit_reversal(mesh)},
      {"random-perm", random_permutation(mesh, wrng)},
      {"block-exch l=8", block_exchange(mesh, 8)},
  };

  Table table({"workload", "C* >=", "C offline", "offline/C*",
               "C oblivious", "oblivious/offline", "log2 n"});
  for (const auto& w : workloads) {
    const double lb = best_lower_bound(mesh, w.problem);

    OfflineOptions off_options;
    off_options.seed = 11;
    const OfflineResult offline = offline_route(mesh, w.problem, off_options);

    const auto router = make_router(Algorithm::kHierarchical2d, mesh);
    RouteAllOptions options;
    options.seed = 13;
    const RouteSetMetrics oblivious =
        evaluate_with_bound(mesh, *router, w.problem, lb, options);

    table.row()
        .add(w.name)
        .add(lb, 1)
        .add(offline.congestion)
        .add(static_cast<double>(offline.congestion) / std::max(lb, 1.0), 2)
        .add(oblivious.congestion)
        .add(static_cast<double>(oblivious.congestion) /
                 static_cast<double>(std::max<std::int64_t>(offline.congestion, 1)),
             2)
        .add(std::log2(static_cast<double>(mesh.num_nodes())), 1);
  }
  table.print(std::cout);
  bench::note(
      "\nExpected: the offline optimizer sits within ~1.5x of the lower\n"
      "bound (so the bound is a faithful stand-in for C*), and the\n"
      "oblivious algorithm is a factor of 2-3 above the offline optimum on\n"
      "a log2 n = 12 mesh -- inside the O(log n) competitive ratio, with\n"
      "zero knowledge of the traffic. The Maggs et al. lower bound\n"
      "Omega(log n / log log n) on the competitive ratio of ANY oblivious\n"
      "algorithm says a gap of this shape is unavoidable.");
  return 0;
}
