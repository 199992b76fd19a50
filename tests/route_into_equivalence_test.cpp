// Draw-for-draw equivalence of the two routing entry points: for every
// registered algorithm, route_into (node list) and route_segments_into
// (segments) must select the same path AND consume exactly the same rng
// stream -- the rng-stream compatibility invariant of DESIGN.md section
// 8. Also pins scratch and plan-cache correctness: a dirty scratch, warm
// hits, and evicted-and-rebuilt plans never change paths.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/soa_batch.hpp"
#include "rng/rng.hpp"
#include "routing/hierarchical.hpp"
#include "routing/registry.hpp"
#include "routing/route_scratch.hpp"
#include "test_support.hpp"
#include "workloads/problem.hpp"

namespace oblivious {
namespace {

struct MeshCase {
  int dim;
  std::int64_t side;
  bool torus;
};

std::vector<MeshCase> mesh_cases() {
  return {{2, 16, false}, {2, 16, true}, {3, 8, false}, {3, 8, true}};
}

// After each pair of calls the two rng copies must have consumed the same
// number of draws; drawing once more from each proves stream alignment
// (identical internal state), not just identical output.
void expect_same_stream(Rng& a, Rng& b, const std::string& context) {
  EXPECT_EQ(a.next_u64(), b.next_u64()) << context << ": rng streams diverged";
}

TEST(RouteIntoEquivalence, NodeAndSegmentFormsMatch) {
  for (const MeshCase& mc : mesh_cases()) {
    const Mesh mesh = Mesh::cube(mc.dim, mc.side, mc.torus);
    const auto pairs = testing::sample_pairs(mesh, 64, 7);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      RouteScratch scratch;
      Rng rng_nodes(11);
      Rng rng_segments(11);
      Path nodes;
      SegmentPath segments;
      for (const auto& [s, t] : pairs) {
        router->route_into(s, t, rng_nodes, scratch, nodes);
        router->route_segments_into(s, t, rng_segments, scratch, segments);
        EXPECT_EQ(path_from_segments(mesh, segments).nodes, nodes.nodes)
            << router->name();
        expect_same_stream(rng_nodes, rng_segments, router->name());
      }
    }
  }
}

// Degenerate s == t demands must also agree (and consume no randomness in
// routers that early-return).
TEST(RouteIntoEquivalence, SelfDemandsMatch) {
  const Mesh mesh = Mesh::cube(2, 16);
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    RouteScratch scratch;
    Rng rng_nodes(3);
    Rng rng_segments(3);
    Path nodes;
    SegmentPath segments;
    const NodeId n = mesh.num_nodes() / 2;
    router->route_into(n, n, rng_nodes, scratch, nodes);
    router->route_segments_into(n, n, rng_segments, scratch, segments);
    EXPECT_EQ(nodes.source(), n) << router->name();
    EXPECT_EQ(nodes.destination(), n) << router->name();
    EXPECT_EQ(path_from_segments(mesh, segments).nodes, nodes.nodes)
        << router->name();
    expect_same_stream(rng_nodes, rng_segments, router->name());
  }
}

// A scratch that has been through many differently-shaped routes (stale
// chain, longer previous paths) must not leak state into later results.
TEST(RouteIntoEquivalence, DirtyScratchIsHarmless) {
  const Mesh mesh = Mesh::cube(3, 8, /*torus=*/true);
  const auto pairs = testing::sample_pairs(mesh, 96, 31);
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    RouteScratch reused;
    SegmentPath reused_out;
    for (const auto& [s, t] : pairs) {
      Rng rng_a(101);
      Rng rng_b(101);
      // Fresh scratch + fresh output vs. the battle-scarred pair.
      RouteScratch fresh;
      SegmentPath fresh_out;
      router->route_segments_into(s, t, rng_a, fresh, fresh_out);
      router->route_segments_into(s, t, rng_b, reused, reused_out);
      EXPECT_EQ(fresh_out, reused_out) << router->name();
    }
  }
}

// Plan-cache hits must reproduce the cold-path routes exactly: route every
// pair twice (second pass is warm) and against a cache-cleared router.
TEST(RouteIntoEquivalence, WarmPlanCacheMatchesCold) {
  for (const MeshCase& mc : std::vector<MeshCase>{{2, 16, false}, {3, 8, false}}) {
    const Mesh mesh = Mesh::cube(mc.dim, mc.side, mc.torus);
    const auto pairs = testing::sample_pairs(mesh, 48, 43);
    for (const Algorithm algo :
         {Algorithm::kAccessTree, Algorithm::kHierarchical2d,
          Algorithm::kHierarchicalNd, Algorithm::kHierarchicalNdFrugal}) {
      const auto router = make_router(algo, mesh);
      RouteScratch scratch;
      SegmentPath cold, warm;
      std::vector<SegmentPath> cold_results;
      for (const auto& [s, t] : pairs) {
        Rng rng(57);
        router->route_segments_into(s, t, rng, scratch, cold);
        cold_results.push_back(cold);
      }
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        Rng rng(57);
        router->route_segments_into(pairs[i].first, pairs[i].second, rng,
                                    scratch, warm);
        EXPECT_EQ(cold_results[i], warm) << router->name();
      }
    }
  }
}

TEST(RouteIntoEquivalence, PlanCacheCountersAdvance) {
  const Mesh mesh = Mesh::cube(2, 16);
  const AncestorRouter router(mesh, AncestorRouter::Hierarchy::kAccessGraph);
  RouteScratch scratch;
  SegmentPath out;
  Rng rng(5);
  router.route_segments_into(1, 200, rng, scratch, out);
  EXPECT_EQ(router.plan_cache().stats().misses, 1u);
  EXPECT_EQ(router.plan_cache().stats().hits, 0u);
  router.route_segments_into(1, 200, rng, scratch, out);
  EXPECT_EQ(router.plan_cache().stats().misses, 1u);
  EXPECT_EQ(router.plan_cache().stats().hits, 1u);
  router.clear_plan_cache();
  router.route_segments_into(1, 200, rng, scratch, out);
  EXPECT_EQ(router.plan_cache().stats().misses, 2u);
}

// The cache's bytes are its slots plus each entry's chain storage: a miss
// grows them, a hit does not, and clear() keeps the retained storage.
TEST(RouteIntoEquivalence, PlanCacheBytesCountChainStorage) {
  const Mesh mesh = Mesh::cube(2, 16);
  const AncestorRouter router(mesh, AncestorRouter::Hierarchy::kAccessGraph);
  const std::size_t empty = router.plan_cache().memory_bytes();
  EXPECT_GT(empty, 0u);
  RouteScratch scratch;
  SegmentPath out;
  Rng rng(5);
  router.route_segments_into(1, 200, rng, scratch, out);
  const std::size_t one = router.plan_cache().memory_bytes();
  EXPECT_GT(one, empty);
  router.route_segments_into(1, 200, rng, scratch, out);
  EXPECT_EQ(router.plan_cache().memory_bytes(), one);
  router.clear_plan_cache();
  EXPECT_EQ(router.plan_cache().memory_bytes(), one);
}

// A pathologically small cache forces constant eviction; rebuilt plans
// must be identical to the ones a big-cache router produces.
TEST(RouteIntoEquivalence, EvictionNeverChangesPaths) {
  const Mesh mesh = Mesh::cube(2, 16);
  const auto pairs = testing::sample_pairs(mesh, 128, 61);
  const AncestorRouter tiny(mesh, AncestorRouter::Hierarchy::kAccessGraph,
                            /*plan_cache_capacity=*/4);
  const AncestorRouter big(mesh, AncestorRouter::Hierarchy::kAccessGraph);
  const NdRouter tiny_nd(mesh, NdRouter::RandomnessMode::kFrugal,
                         NdRouter::BridgeHeightMode::kPrescribed,
                         /*plan_cache_capacity=*/4);
  const NdRouter big_nd(mesh, NdRouter::RandomnessMode::kFrugal);
  RouteScratch scratch;
  SegmentPath a, b;
  for (int round = 0; round < 3; ++round) {  // revisit evicted pairs
    for (const auto& [s, t] : pairs) {
      Rng rng_a(71), rng_b(71);
      tiny.route_segments_into(s, t, rng_a, scratch, a);
      big.route_segments_into(s, t, rng_b, scratch, b);
      EXPECT_EQ(a, b);
      Rng rng_c(73), rng_d(73);
      tiny_nd.route_segments_into(s, t, rng_c, scratch, a);
      big_nd.route_segments_into(s, t, rng_d, scratch, b);
      EXPECT_EQ(a, b);
    }
  }
  EXPECT_GT(tiny.plan_cache().stats().evictions, 0u);
  EXPECT_GT(tiny.plan_cache().stats().hits, 0u);  // tiny still hits on rounds
}

// The SoA batch engine must reproduce route_segments_into packet for
// packet: pair grouping, the compiled draw program, and the lane-parallel
// rng may not change a single segment (DESIGN.md section 10). One engine
// instance is reused across all meshes and algorithms, so every iteration
// after the first runs with dirty plan columns and draw rows from a
// differently-shaped predecessor. The demand list repeats pairs (so
// groups span multiple lane blocks, including ragged tails) and the batch
// is split at two uneven sub-ranges, each grouped on its own, so a pair
// group is cut into two pieces at a mid-array index, exactly as a claim
// boundary of the packet driver cuts it.
TEST(RouteIntoEquivalence, SoaEngineMatchesScalarPerPacket) {
  constexpr std::uint64_t kSeed = 91;
  SoaBatchEngine engine;
  for (const MeshCase& mc : mesh_cases()) {
    const Mesh mesh = Mesh::cube(mc.dim, mc.side, mc.torus);
    const auto pairs = testing::sample_pairs(mesh, 40, 83);
    std::vector<Demand> demands;
    for (const auto& [s, t] : pairs) demands.push_back({s, t});
    for (std::size_t i = 0; i < 30; ++i) {  // repeats: multi-block groups
      demands.push_back({pairs[i % 3].first, pairs[i % 3].second});
    }
    demands.push_back({pairs[0].first, pairs[0].first});  // s == t
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const SoaBatchEngine::Kernel kernel = SoaBatchEngine::kernel_for(*router);
      if (!kernel.supported()) continue;
      std::vector<SegmentPath> scalar_out(demands.size());
      RouteScratch scratch;
      for (std::size_t i = 0; i < demands.size(); ++i) {
        Rng rng = packet_rng(kSeed, i);
        router->route_segments_into(demands[i].src, demands[i].dst, rng,
                                    scratch, scalar_out[i]);
      }
      std::vector<SegmentPath> soa_out(demands.size());
      const std::size_t bounds[] = {0, demands.size() / 3, demands.size()};
      for (std::size_t r = 0; r < 2; ++r) {
        for (const auto& group :
             testing::group_by_pair(demands, bounds[r], bounds[r + 1])) {
          engine.run(kernel, group.pair, group.packets, kSeed,
                     std::span<SegmentPath>(soa_out), nullptr);
        }
      }
      EXPECT_EQ(soa_out, scalar_out)
          << router->name() << " dim=" << mc.dim << " torus=" << mc.torus;
    }
  }
}

// Staircase draws a data-dependent number of words per hop, so it has no
// SoA kernel; kernel_for() must say so (the packet driver then keeps it
// on the per-packet block loop), and the routers with kernels must all
// be claimed.
TEST(RouteIntoEquivalence, SoaEngineSupportMatrix) {
  const Mesh mesh = Mesh::cube(2, 16);
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    EXPECT_EQ(SoaBatchEngine::kernel_for(*router).supported(),
              algo != Algorithm::kStaircase)
        << router->name();
  }
}

}  // namespace
}  // namespace oblivious
