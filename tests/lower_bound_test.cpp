#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "analysis/evaluate.hpp"
#include "analysis/lower_bound.hpp"
#include "routing/registry.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

TEST(LowerBound, EmptyProblemIsZero) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  const RoutingProblem empty;
  const CongestionLowerBound lb = congestion_lower_bound(m, dec, empty);
  EXPECT_DOUBLE_EQ(lb.boundary, 0.0);
  EXPECT_DOUBLE_EQ(lb.average, 0.0);
  EXPECT_DOUBLE_EQ(lb.value(), 0.0);
}

TEST(LowerBound, SelfDemandsDoNotCount) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  RoutingProblem p;
  p.demands = {{3, 3}, {7, 7}};
  EXPECT_DOUBLE_EQ(congestion_lower_bound(m, dec, p).value(), 0.0);
}

TEST(LowerBound, HotspotBoundedByNodeDegree) {
  // All packets into one node must cross its <= 2d incident edges; the
  // leaf-level submesh {sink} captures exactly that.
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  RoutingProblem p;
  const NodeId sink = m.node_id(Coord{8, 8});
  for (NodeId u = 0; u < 40; ++u) {
    if (u != sink) p.demands.push_back({u, sink});
  }
  const CongestionLowerBound lb = congestion_lower_bound(m, dec, p);
  EXPECT_GE(lb.boundary, static_cast<double>(p.demands.size()) / 4.0);
}

TEST(LowerBound, BisectionBoundOnBlockExchange) {
  // The block-exchange workload with l = side/2 sends the whole left half
  // to the right half: |Pi'| = n/2 over out = side edges... on the section4
  // decomposition the half-mesh is not a regular submesh, but quadrant
  // bounds still force B >= (n/8) / (2*side).
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  const RoutingProblem p = block_exchange(m, 8);
  const CongestionLowerBound lb = congestion_lower_bound(m, dec, p);
  EXPECT_GE(lb.value(), 2.0);
}

TEST(LowerBound, AverageBoundMatchesHandComputation) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  RoutingProblem p;
  p.demands = {{0, m.num_nodes() - 1}};  // distance 30
  const CongestionLowerBound lb = congestion_lower_bound(m, dec, p);
  EXPECT_NEAR(lb.average, 30.0 / static_cast<double>(m.num_edges()), 1e-12);
}

TEST(LowerBound, CutFallbackMatchesHierarchicalOrderOfMagnitude) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  const RoutingProblem p = transpose(m);
  const double hierarchical = congestion_lower_bound(m, dec, p).value();
  const double cuts = congestion_lower_bound(m, p).value();
  EXPECT_GT(cuts, 0.0);
  EXPECT_GT(hierarchical, 0.0);
  EXPECT_LT(std::abs(std::log2(hierarchical / cuts)), 2.0);
}

TEST(LowerBound, WorksOnNonPowerOfTwoMeshes) {
  const Mesh m({6, 10});
  RoutingProblem p;
  // Everything from the left half to the right half.
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    const Coord c = m.coord(u);
    if (c[1] < 5) {
      Coord o = c;
      o[1] = c[1] + 5;
      p.demands.push_back({u, m.node_id(o)});
    }
  }
  const CongestionLowerBound lb = congestion_lower_bound(m, p);
  // 30 packets cross the 6-edge cut between columns 4 and 5.
  EXPECT_GE(lb.boundary, 5.0);
}

TEST(LowerBound, NoAlgorithmBeatsTheBound) {
  // The fundamental property: for every algorithm, achieved congestion is
  // at least the lower bound (the bound is valid for *any* routing).
  const Mesh m({16, 16});
  using ProblemFactory = RoutingProblem (*)(const Mesh&);
  const ProblemFactory factories[] = {
      [](const Mesh& mesh) { return transpose(mesh); },
      [](const Mesh& mesh) { return bit_reversal(mesh); },
      [](const Mesh& mesh) { return block_exchange(mesh, 4, 0); }};
  for (const ProblemFactory make_problem : factories) {
    const RoutingProblem problem = make_problem(m);
    const double lb = best_lower_bound(m, problem);
    for (const Algorithm a : algorithms_for(m)) {
      const auto router = make_router(a, m);
      const RouteSetMetrics metrics =
          evaluate_with_bound(m, *router, problem, lb);
      EXPECT_GE(static_cast<double>(metrics.congestion) + 1e-9, std::floor(lb))
          << algorithm_name(a);
    }
  }
}

TEST(LowerBound, ArgmaxSubmeshIsReported) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section4(m);
  const RoutingProblem p = block_exchange(m, 8);
  const CongestionLowerBound lb = congestion_lower_bound(m, dec, p);
  EXPECT_GT(lb.boundary, 0.0);
  EXPECT_GE(lb.boundary_argmax.region.volume(), 1);
}

// Pins the bits of boundary and value() and the argmax submesh -- its
// (level, type, grid_key), region and truncation -- for both
// decompositions on mesh and torus in d = 1..3, so a faster bound must be
// the same bound. Three problems: a permutation, a skewed hot spot (a
// quarter of the nodes into one sink, on top of a permutation), and a
// slab exchange, whose argmax is a truncated shifted piece on the mesh.
TEST(LowerBound, MatchesParentGolden) {
  struct GoldenCase {
    bool section4;
    bool torus;
    int dim;
    std::uint64_t golden;
  };
  const GoldenCase cases[] = {
      {false, false, 1, 0x2bc4c6b17f950bf7ULL},
      {false, false, 2, 0x5908345c2913a63fULL},
      {false, false, 3, 0x3fe6d6c1739587f7ULL},
      {false, true, 1, 0xcdfa2b9b085e73cfULL},
      {false, true, 2, 0xca69eb311815d25cULL},
      {false, true, 3, 0xc118a1e6b75a4dULL},
      {true, false, 1, 0x2c37b237759517f7ULL},
      {true, false, 2, 0xcf9625ff7cfc3a97ULL},
      {true, false, 3, 0xf7779d5883b5913ULL},
      {true, true, 1, 0xcdfa2b9b085e73cfULL},
      {true, true, 2, 0x1ed4437c9bb2ad1cULL},
      {true, true, 3, 0x46a2d99c49dc036cULL},
  };
  const std::int64_t sides[] = {0, 64, 16, 8};
  for (const GoldenCase& c : cases) {
    const Mesh mesh =
        Mesh::cube(c.dim, sides[static_cast<std::size_t>(c.dim)], c.torus);
    const Decomposition dec = c.section4 ? Decomposition::section4(mesh)
                                         : Decomposition::section3(mesh);
    SCOPED_TRACE(std::string(c.section4 ? "section4 " : "section3 ") +
                 mesh.describe());
    Rng rng(21 + static_cast<std::uint64_t>(c.dim));
    const RoutingProblem permutation = random_permutation(mesh, rng);
    RoutingProblem skewed = hotspot(
        mesh, rng, static_cast<std::size_t>(mesh.num_nodes() / 4));
    const RoutingProblem background = random_permutation(mesh, rng);
    skewed.demands.insert(skewed.demands.end(), background.demands.begin(),
                          background.demands.end());
    const RoutingProblem slabs = block_exchange(mesh, mesh.side(0) / 4);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (const RoutingProblem& problem : {permutation, skewed, slabs}) {
      const CongestionLowerBound lb = congestion_lower_bound(mesh, dec, problem);
      mix(std::bit_cast<std::uint64_t>(lb.boundary));
      mix(std::bit_cast<std::uint64_t>(lb.value()));
      const RegularSubmesh& arg = lb.boundary_argmax;
      mix(static_cast<std::uint64_t>(arg.level));
      mix(static_cast<std::uint64_t>(arg.type));
      mix(static_cast<std::uint64_t>(arg.grid_key));
      mix(arg.truncated ? 1U : 0U);
      for (int d = 0; d < arg.region.dim(); ++d) {
        mix(static_cast<std::uint64_t>(arg.region.anchor_at(d)));
        mix(static_cast<std::uint64_t>(arg.region.extent_at(d)));
      }
    }
    EXPECT_EQ(h, c.golden) << std::hex << "fingerprint 0x" << h;
  }
}

}  // namespace
}  // namespace oblivious
