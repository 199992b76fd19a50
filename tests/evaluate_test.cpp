#include <gtest/gtest.h>

#include "analysis/evaluate.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

// Routes every demand of `problem` (node lists) through the batch driver.
std::vector<Path> route_paths(const Router& router,
                              const RoutingProblem& problem, ThreadPool& pool,
                              std::uint64_t seed) {
  RouteBatchOptions options;
  options.seed = seed;
  std::vector<Path> paths;
  route_batch_paths(router, problem.demands, pool, options, paths);
  return paths;
}

TEST(RouteAll, OnePathPerDemandWithMatchingEndpoints) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  Rng rng(1);
  const RoutingProblem problem = random_permutation(m, rng);
  ThreadPool pool(1);
  const std::vector<Path> paths = route_paths(*router, problem, pool, 1);
  ASSERT_EQ(paths.size(), problem.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].source(), problem.demands[i].src);
    EXPECT_EQ(paths[i].destination(), problem.demands[i].dst);
  }
}

TEST(RouteAll, SeedReproducibility) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kValiant, m);
  const RoutingProblem problem = transpose(m);
  ThreadPool pool(1);
  const auto a = route_paths(*router, problem, pool, 42);
  const auto b = route_paths(*router, problem, pool, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].nodes, b[i].nodes);
  const auto c = route_paths(*router, problem, pool, 43);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].nodes != c[i].nodes;
  }
  EXPECT_TRUE(any_different);
}

// evaluate's erase_cycles option measures exactly the loop-erased paths:
// shorter or equal, simple, same endpoints, and no extra congestion.
TEST(RouteAll, CycleErasureShortensWithoutChangingEndpoints) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kValiant, m);
  const RoutingProblem problem = transpose(m);
  ThreadPool pool(1);
  const auto a = route_paths(*router, problem, pool, 1);
  std::vector<SegmentPath> erased;
  std::int64_t total_a = 0;
  std::int64_t total_b = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Path b = remove_cycles(a[i]);
    total_a += a[i].length();
    total_b += b.length();
    EXPECT_EQ(b.source(), a[i].source());
    EXPECT_EQ(b.destination(), a[i].destination());
    EXPECT_TRUE(is_simple_path(b));
    erased.push_back(segments_from_path(m, b));
  }
  EXPECT_LE(total_b, total_a);

  RouteAllOptions options;
  options.erase_cycles = true;
  const RouteSetMetrics measured = evaluate(m, *router, problem, options);
  const RouteSetMetrics expected = measure_segment_paths(
      m, problem, erased, best_lower_bound(m, problem));
  EXPECT_EQ(measured.congestion, expected.congestion);
  EXPECT_EQ(measured.dilation, expected.dilation);
  EXPECT_EQ(measured.mean_stretch, expected.mean_stretch);
  options.erase_cycles = false;
  EXPECT_LE(measured.congestion,
            evaluate(m, *router, problem, options).congestion);
}

TEST(RouteAll, BitStatsCollected) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchicalNdFrugal, m);
  const RoutingProblem problem = transpose(m);
  const RouteSetMetrics metrics = evaluate(m, *router, problem);
  EXPECT_EQ(metrics.bits_per_packet.count(), problem.size());
  EXPECT_GT(metrics.bits_per_packet.mean(), 0.0);
}

TEST(RouteAllParallel, MatchesAcrossThreadCounts) {
  // Oblivious selection: per-packet seeds make the result independent of
  // chunking and thread count.
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  const RoutingProblem problem = transpose(m);
  ThreadPool serial(1);
  ThreadPool wide(4);
  const auto a = route_paths(*router, problem, serial, 99);
  const auto b = route_paths(*router, problem, wide, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
  }
}

TEST(RouteAllParallel, ValidPathsAndSeedSensitivity) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kValiant, m);
  const RoutingProblem problem = transpose(m);
  ThreadPool pool(2);
  const auto a = route_paths(*router, problem, pool, 1);
  const auto b = route_paths(*router, problem, pool, 2);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(is_valid_path(m, a[i]));
    EXPECT_EQ(a[i].source(), problem.demands[i].src);
    EXPECT_EQ(a[i].destination(), problem.demands[i].dst);
    any_different = any_different || a[i].nodes != b[i].nodes;
  }
  EXPECT_TRUE(any_different);
}

TEST(Evaluate, MetricsAreInternallyConsistent) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  const RoutingProblem problem = bit_reversal(m);
  const RouteSetMetrics metrics = evaluate(m, *router, problem);
  EXPECT_EQ(metrics.algorithm, "hierarchical-2d");
  EXPECT_EQ(metrics.packets, problem.size());
  EXPECT_GT(metrics.congestion, 0);
  EXPECT_GE(metrics.dilation, metrics.max_distance);
  EXPECT_GE(metrics.max_stretch, metrics.mean_stretch);
  EXPECT_GE(metrics.mean_stretch, 1.0);
  EXPECT_GT(metrics.lower_bound, 0.0);
  EXPECT_NEAR(metrics.congestion_ratio,
              static_cast<double>(metrics.congestion) /
                  std::max(metrics.lower_bound, 1.0),
              1e-12);
}

TEST(Evaluate, EcubeHasUnitStretch) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kEcube, m);
  const RouteSetMetrics metrics = evaluate(m, *router, transpose(m));
  EXPECT_DOUBLE_EQ(metrics.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(metrics.bits_per_packet.max(), 0.0);
}

TEST(Evaluate, LowerBoundFallbackOnRectangularMesh) {
  const Mesh m({4, 32});
  const auto router = make_router(Algorithm::kEcube, m);
  RoutingProblem problem;
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    problem.demands.push_back({u, m.num_nodes() - 1 - u});
  }
  const RouteSetMetrics metrics = evaluate(m, *router, problem);
  EXPECT_GT(metrics.lower_bound, 0.0);
  EXPECT_GE(static_cast<double>(metrics.congestion), metrics.lower_bound - 1.0);
}

TEST(Evaluate, RejectsMismatchedPathCount) {
  const Mesh m({16, 16});
  RoutingProblem problem;
  problem.demands = {{0, 1}, {1, 2}};
  const std::vector<SegmentPath> one_path(1);
  EXPECT_THROW(measure_segment_paths(m, problem, one_path, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace oblivious
