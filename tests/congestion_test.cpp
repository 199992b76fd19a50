#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/congestion.hpp"
#include "analysis/sketch/load_accountant.hpp"
#include "routing/baselines.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace oblivious {
namespace {

Path make_path(std::initializer_list<NodeId> nodes) {
  Path p;
  p.nodes.assign(nodes);
  return p;
}

TEST(EdgeLoadMap, EmptyMapHasZeroLoad) {
  const Mesh m({4, 4});
  const EdgeLoadMap loads(m);
  EXPECT_EQ(loads.max_load(), 0U);
  EXPECT_EQ(loads.edges_used(), 0);
  EXPECT_DOUBLE_EQ(loads.mean_nonzero(), 0.0);
}

TEST(EdgeLoadMap, SinglePathCountsEachEdgeOnce) {
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  loads.add_path(make_path({0, 1, 2, 6}));
  EXPECT_EQ(loads.max_load(), 1U);
  EXPECT_EQ(loads.edges_used(), 3);
  EXPECT_EQ(loads.load(m.edge_between(0, 1)), 1U);
  EXPECT_EQ(loads.load(m.edge_between(2, 6)), 1U);
  EXPECT_EQ(loads.load(m.edge_between(6, 7)), 0U);
}

TEST(EdgeLoadMap, OverlappingPathsAccumulate) {
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  loads.add_path(make_path({0, 1, 2}));
  loads.add_path(make_path({2, 1}));  // reverse direction counts too
  loads.add_path(make_path({1, 2, 3}));
  EXPECT_EQ(loads.load(m.edge_between(1, 2)), 3U);
  EXPECT_EQ(loads.max_load(), 3U);
  EXPECT_EQ(loads.argmax(), m.edge_between(1, 2));
}

TEST(EdgeLoadMap, TrivialPathAddsNothing) {
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  loads.add_path(make_path({5}));
  EXPECT_EQ(loads.max_load(), 0U);
}

TEST(EdgeLoadMap, RejectsNonAdjacentHops) {
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  EXPECT_THROW(loads.add_path(make_path({0, 2})), std::invalid_argument);
}

TEST(EdgeLoadMap, TorusWrapEdges) {
  const Mesh t({4, 4}, true);
  EdgeLoadMap loads(t);
  const NodeId a = t.node_id(Coord{0, 0});
  const NodeId b = t.node_id(Coord{3, 0});
  loads.add_path(make_path({a, b}));        // wrap -1 in dim 0
  loads.add_path(make_path({b, a}));        // wrap +1 in dim 0
  EXPECT_EQ(loads.load(t.edge_between(a, b)), 2U);
  const NodeId c = t.node_id(Coord{1, 0});
  const NodeId d = t.node_id(Coord{1, 3});
  loads.add_path(make_path({c, d}));        // wrap in dim 1
  EXPECT_EQ(loads.load(t.edge_between(c, d)), 1U);
  EXPECT_EQ(loads.max_load(), 2U);
}

TEST(EdgeLoadMap, MatchesBruteForceOnRandomPaths) {
  for (const bool torus : {false, true}) {
    const Mesh m({8, 8}, torus);
    const RandomDimOrderRouter router(m);
    Rng rng(3);
    std::vector<Path> paths;
    for (const auto& [s, t] : testing::sample_pairs(m, 100, 1)) {
      paths.push_back(router.route(s, t, rng));
    }
    EdgeLoadMap fast(m);
    fast.add_paths(paths);
    // Brute force via edge_between on every hop.
    std::vector<std::uint32_t> brute(static_cast<std::size_t>(m.num_edges()), 0);
    for (const Path& p : paths) {
      for (std::size_t i = 0; i + 1 < p.nodes.size(); ++i) {
        ++brute[static_cast<std::size_t>(
            m.edge_between(p.nodes[i], p.nodes[i + 1]))];
      }
    }
    for (EdgeId e = 0; e < m.num_edges(); ++e) {
      ASSERT_EQ(fast.load(e), brute[static_cast<std::size_t>(e)])
          << "edge " << e << " torus=" << torus;
    }
  }
}

TEST(EdgeLoadMap, HistogramAndClear) {
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  loads.add_path(make_path({0, 1, 2}));
  loads.add_path(make_path({0, 1}));
  const IntHistogram h = loads.histogram();
  EXPECT_EQ(h.total(), static_cast<std::uint64_t>(m.num_edges()));
  EXPECT_EQ(h.count(2), 1U);  // edge (0,1)
  EXPECT_EQ(h.count(1), 1U);  // edge (1,2)
  loads.clear();
  EXPECT_EQ(loads.max_load(), 0U);
}

TEST(EdgeLoadMap, MeanNonzero) {
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  loads.add_path(make_path({0, 1, 2}));
  loads.add_path(make_path({0, 1}));
  EXPECT_DOUBLE_EQ(loads.mean_nonzero(), 1.5);
}

TEST(EdgeLoadMap, MaxLoadMemoizationSurvivesEveryMutator) {
  // max_load() caches its scan; every mutator must invalidate the cache.
  const Mesh m({4, 4});
  EdgeLoadMap loads(m);
  EXPECT_EQ(loads.max_load(), 0U);
  loads.add_path(make_path({0, 1, 2}));
  EXPECT_EQ(loads.max_load(), 1U);
  EXPECT_EQ(loads.max_load(), 1U);  // cached read
  loads.add_path(make_path({0, 1}));
  EXPECT_EQ(loads.max_load(), 2U);  // add_path invalidates

  SegmentPath sp;
  sp.source = 0;
  // One +1 hop along the unit-stride dimension: node 0 -> 1.
  sp.append(m.node_stride(0) == 1 ? 0 : 1, 1);
  sp.dest = 1;
  loads.add_segments(sp);
  EXPECT_EQ(loads.max_load(), 3U);  // add_segments invalidates

  EdgeLoadMap other(m);
  other.add_path(make_path({0, 1}));
  loads.merge(other);
  EXPECT_EQ(loads.max_load(), 4U);  // merge invalidates

  loads.clear();
  EXPECT_EQ(loads.max_load(), 0U);  // clear resets
}

// Which of the accountants' exceptions add_segments throws for `sp`.
std::string thrown_by(LoadAccountant& accountant, const SegmentPath& sp) {
  try {
    accountant.add_segments(sp);
  } catch (const ContractViolation&) {
    return "ContractViolation";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::logic_error&) {
    return "logic_error";
  }
  return "nothing";
}

SegmentPath runs(NodeId source, NodeId dest, std::vector<Segment> segments) {
  SegmentPath sp;
  sp.source = source;
  sp.dest = dest;
  for (const Segment& seg : segments) sp.segments.push_back(seg);
  return sp;
}

// Both accountants index per-dimension state by the segment's dimension,
// so every malformed path must be rejected before it is charged -- in a
// default Release build too, where the O(path) OBLV_EXPECTS validator is
// compiled out. A contract-checked build rejects all but the empty path
// in that validator first.
TEST(LoadAccountant, RejectsMalformedSegmentPathsInEveryMode) {
  const Mesh mesh({4, 8});  // node (x, y) has id 8x + y
  const Mesh thin({1, 8});  // dimension 0 has side 1
  struct Case {
    const char* what;
    const Mesh* mesh;
    SegmentPath sp;
    const char* release;  // the always-on check's exception
  };
  const std::vector<Case> cases = {
      {"empty path", &mesh, SegmentPath{}, "invalid_argument"},
      {"source out of range", &mesh, runs(32, 33, {{1, 1}}), "invalid_argument"},
      {"run off the +x side", &mesh, runs(2, 4, {{1, 2}, {0, 4}}),
       "invalid_argument"},
      {"run off the -x side", &mesh, runs(16, 0, {{0, -3}}), "invalid_argument"},
      {"run off the +y side", &mesh, runs(8, 24, {{0, 1}, {1, 8}}),
       "invalid_argument"},
      {"run off the -y side", &mesh, runs(3, 0, {{1, -4}}), "invalid_argument"},
      {"run along a side-1 dimension", &thin, runs(0, 0, {{0, 1}}),
       "invalid_argument"},
      {"dimension == dim()", &mesh, runs(0, 8, {{2, 1}}), "invalid_argument"},
      {"negative dimension", &mesh, runs(0, 8, {{-1, 1}}), "invalid_argument"},
      {"wrong dest", &mesh, runs(0, 9, {{0, 1}, {1, 2}}), "logic_error"},
  };
  SketchConfig config;
  config.sketch_bytes = std::size_t{64} << 10;
  config.top_lines = 16;
  for (const AccountingMode mode :
       {AccountingMode::kExact, AccountingMode::kSketch}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(accounting_mode_name(mode)) + ": " + c.what);
      const auto accountant = LoadAccountant::create(*c.mesh, mode, config);
      const bool validated = OBLV_CONTRACTS_ACTIVE && !c.sp.empty();
      EXPECT_EQ(thrown_by(*accountant, c.sp),
                validated ? "ContractViolation" : c.release);
    }
    // The walk itself is sound: the wrong-dest path's runs, with the
    // right dest, charge their three hops.
    const auto accountant = LoadAccountant::create(mesh, mode, config);
    accountant->add_segments(runs(0, 10, {{0, 1}, {1, 2}}));
    EXPECT_EQ(accountant->total_edge_charges(), 3U);
    EXPECT_GE(accountant->estimate_load(mesh.edge_between(8, 9)), 1U);
  }
}

}  // namespace
}  // namespace oblivious
