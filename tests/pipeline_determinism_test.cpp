// Determinism of the parallel segment pipeline: per-packet rng streams are
// derived from (seed, packet index) only, so the selected paths -- and
// every reported metric -- must be byte-identical for any thread count.
// Also pins evaluate_trials to a node-based reference.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/congestion.hpp"
#include "analysis/evaluate.hpp"
#include "analysis/trials.hpp"
#include "core/oblivious_routing.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "test_support.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

TEST(PipelineDeterminism, SegmentRoutingIdenticalAcrossThreadCounts) {
  const Mesh mesh = Mesh::cube(2, 16);
  const RoutingProblem problem = transpose(mesh);
  for (const Algorithm algo :
       {Algorithm::kRandomDimOrder, Algorithm::kHierarchicalNd}) {
    const auto router = make_router(algo, mesh);
    ThreadPool pool1(1);
    ThreadPool pool2(2);
    ThreadPool pool8(8);
    RouteBatchOptions options;
    options.seed = 42;
    std::vector<SegmentPath> paths1, paths2, paths8;
    route_batch(*router, problem.demands, pool1, options, paths1);
    route_batch(*router, problem.demands, pool2, options, paths2);
    route_batch(*router, problem.demands, pool8, options, paths8);
    ASSERT_EQ(paths1.size(), problem.size());
    EXPECT_EQ(paths1, paths2) << router->name();
    EXPECT_EQ(paths1, paths8) << router->name();
  }
}

// The segment pipeline and the node-list pipeline draw the same per-packet
// streams, so they must select the same routes.
TEST(PipelineDeterminism, SegmentPipelineMatchesNodeListPipeline) {
  const Mesh mesh = Mesh::cube(2, 8, /*torus=*/true);
  Rng wl_rng(5);
  const RoutingProblem problem = random_permutation(mesh, wl_rng);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  ThreadPool pool(2);
  RouteBatchOptions options;
  options.seed = 77;
  std::vector<Path> node_paths;
  route_batch_paths(*router, problem.demands, pool, options, node_paths);
  std::vector<SegmentPath> seg_paths;
  route_batch(*router, problem.demands, pool, options, seg_paths);
  ASSERT_EQ(node_paths.size(), seg_paths.size());
  for (std::size_t i = 0; i < node_paths.size(); ++i) {
    EXPECT_EQ(path_from_segments(mesh, seg_paths[i]).nodes,
              node_paths[i].nodes);
  }
}

TEST(PipelineDeterminism, RouteAndMeasureMetricsThreadCountInvariant) {
  const Mesh mesh = Mesh::cube(2, 16);
  const RoutingProblem problem = bit_reversal(mesh);
  const auto router = make_router(Algorithm::kHierarchicalNdFrugal, mesh);
  const double bound = best_lower_bound(mesh, problem);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  std::vector<SegmentPath> paths;
  const RouteSetMetrics m1 = route_and_measure_parallel(
      mesh, *router, problem, bound, pool1, 9, {}, &paths);
  const RouteSetMetrics m8 =
      route_and_measure_parallel(mesh, *router, problem, bound, pool8, 9);
  EXPECT_EQ(m1.congestion, m8.congestion);
  EXPECT_EQ(m1.dilation, m8.dilation);
  EXPECT_DOUBLE_EQ(m1.max_stretch, m8.max_stretch);
  EXPECT_DOUBLE_EQ(m1.mean_stretch, m8.mean_stretch);
  // And the one-pass metrics agree with measuring the returned paths.
  const RouteSetMetrics again =
      measure_segment_paths(mesh, problem, paths, bound);
  EXPECT_EQ(again.congestion, m1.congestion);
  EXPECT_EQ(again.dilation, m1.dilation);
  EXPECT_DOUBLE_EQ(again.max_stretch, m1.max_stretch);
  EXPECT_DOUBLE_EQ(again.mean_stretch, m1.mean_stretch);
}

// evaluate_trials runs on the segment pipeline internally; its numbers
// must match a node-based reference built from route_batch_paths on the
// same seeds (base_seed + t for trial t), for every registered algorithm.
TEST(PipelineDeterminism, EvaluateTrialsMatchesNodeBasedReference) {
  const Mesh mesh = Mesh::cube(2, 8);
  const RoutingProblem problem = transpose(mesh);
  const int trials = 4;
  const std::uint64_t base_seed = 100;
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    const TrialSummary summary =
        evaluate_trials(mesh, *router, problem, trials, base_seed);

    RunningStats ref_congestion;
    std::vector<double> edge_sums(static_cast<std::size_t>(mesh.num_edges()),
                                  0.0);
    ThreadPool pool(1);
    for (int t = 0; t < trials; ++t) {
      RouteBatchOptions options;
      options.seed = base_seed + static_cast<std::uint64_t>(t);
      std::vector<Path> paths;
      route_batch_paths(*router, problem.demands, pool, options, paths);
      EdgeLoadMap loads(mesh);
      loads.add_paths(paths);
      ref_congestion.add(static_cast<double>(loads.max_load()));
      for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
        edge_sums[static_cast<std::size_t>(e)] +=
            static_cast<double>(loads.load(e));
      }
    }
    double ref_max_expected = 0.0;
    for (const double sum : edge_sums) {
      ref_max_expected =
          std::max(ref_max_expected, sum / static_cast<double>(trials));
    }
    EXPECT_DOUBLE_EQ(summary.congestion.mean(), ref_congestion.mean())
        << router->name();
    EXPECT_DOUBLE_EQ(summary.congestion.max(), ref_congestion.max())
        << router->name();
    EXPECT_DOUBLE_EQ(summary.max_expected_edge_load, ref_max_expected)
        << router->name();
  }
}

TEST(PipelineDeterminism, FacadeRouteSegmentsThreadCountInvariant) {
  const ObliviousMeshRouting system(Mesh::cube(2, 16),
                                    Algorithm::kHierarchical2d);
  const RoutingProblem problem = transpose(system.mesh());
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  const SegmentRoutingRun run1 = system.route_segments(problem, pool1, 3);
  const SegmentRoutingRun run2 = system.route_segments(problem, pool2, 3);
  EXPECT_EQ(run1.paths, run2.paths);
  EXPECT_EQ(run1.metrics.congestion, run2.metrics.congestion);
  EXPECT_EQ(run1.metrics.dilation, run2.metrics.dilation);
  EXPECT_GT(run1.metrics.congestion, 0);
  for (const SegmentPath& sp : run1.paths) {
    EXPECT_TRUE(is_valid_segment_path(system.mesh(), sp));
  }
}

}  // namespace
}  // namespace oblivious
