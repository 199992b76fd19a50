#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "decomposition/decomposition.hpp"
#include "util/bits.hpp"

namespace oblivious {
namespace {

// --- configuration -----------------------------------------------------------

TEST(DecompositionConfig, Section3IsDiagonalHalfShift) {
  const auto cfg = DecompositionConfig::section3();
  EXPECT_EQ(cfg.shift_divisor_log2, 1);
  EXPECT_TRUE(cfg.discard_corners);
}

TEST(DecompositionConfig, Section4DivisorCoversDPlusOne) {
  for (int d = 1; d <= 8; ++d) {
    const auto cfg = DecompositionConfig::section4(d);
    const int families = 1 << cfg.shift_divisor_log2;
    EXPECT_GE(families, d + 1) << "d=" << d;
    EXPECT_LE(families, 2 * (d + 1)) << "d=" << d;
    EXPECT_FALSE(cfg.discard_corners);
  }
}

TEST(Decomposition, RequiresSquarePowerOfTwo) {
  const Mesh rect({4, 8});
  EXPECT_THROW(Decomposition::section3(rect), std::invalid_argument);
  const Mesh odd({6, 6});
  EXPECT_THROW(Decomposition::section3(odd), std::invalid_argument);
}

TEST(Decomposition, LevelsAndSides) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section3(m);
  EXPECT_EQ(dec.leaf_level(), 4);
  EXPECT_EQ(dec.side_at(0), 16);
  EXPECT_EQ(dec.side_at(1), 8);
  EXPECT_EQ(dec.side_at(4), 1);
  EXPECT_EQ(dec.height_of(1), 3);
  EXPECT_EQ(dec.level_of_height(3), 1);
}

TEST(Decomposition, Section3TypeCounts) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section3(m);
  EXPECT_EQ(dec.num_types(0), 1);  // the root has no shifted copies
  EXPECT_EQ(dec.num_types(1), 2);
  EXPECT_EQ(dec.num_types(3), 2);
  EXPECT_EQ(dec.num_types(4), 1);  // leaf level: single nodes
  EXPECT_EQ(dec.shift_lambda(1), 4);  // m_1 = 8, shift 8/2
}

TEST(Decomposition, Section4TypeCountsAndLambda3D) {
  const Mesh m = Mesh::cube(3, 16);
  const Decomposition dec = Decomposition::section4(m);
  // d = 3: divisor 2^ceil(log2 4) = 4.
  EXPECT_EQ(dec.num_types(1), 4);   // m = 8, lambda = 2
  EXPECT_EQ(dec.shift_lambda(1), 2);
  EXPECT_EQ(dec.num_types(2), 4);   // m = 4, lambda = 1 (Figure 2 setup)
  EXPECT_EQ(dec.shift_lambda(2), 1);
  EXPECT_EQ(dec.num_types(3), 2);   // m = 2 < 4 families
  EXPECT_EQ(dec.num_types(4), 1);
}

// --- type-1 structure (Lemma 3.1) ---------------------------------------------

class Section3Decomposition : public ::testing::TestWithParam<bool> {
 protected:
  Section3Decomposition()
      : mesh_({16, 16}, GetParam()), dec_(Decomposition::section3(mesh_)) {}
  Mesh mesh_;
  Decomposition dec_;
};

TEST_P(Section3Decomposition, Type1PartitionsEveryLevel) {
  // Lemma 3.1 (1): type-1 submeshes at a level are disjoint; together they
  // cover the mesh.
  for (int level = 0; level <= dec_.leaf_level(); ++level) {
    std::vector<int> covered(static_cast<std::size_t>(mesh_.num_nodes()), 0);
    dec_.for_each_submesh(level, 1, [&](const RegularSubmesh& sm) {
      for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
        if (sm.region.contains_node(mesh_, u)) {
          ++covered[static_cast<std::size_t>(u)];
        }
      }
    });
    for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
      EXPECT_EQ(covered[static_cast<std::size_t>(u)], 1)
          << "level " << level << " node " << u;
    }
  }
}

TEST_P(Section3Decomposition, ShiftedFamilyIsDisjoint) {
  // Lemma 3.1 (1) for the type-2 family: disjoint (but not covering).
  for (int level = 1; level < dec_.leaf_level(); ++level) {
    std::vector<int> covered(static_cast<std::size_t>(mesh_.num_nodes()), 0);
    dec_.for_each_submesh(level, 2, [&](const RegularSubmesh& sm) {
      for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
        if (sm.region.contains_node(mesh_, u)) {
          ++covered[static_cast<std::size_t>(u)];
        }
      }
    });
    for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
      EXPECT_LE(covered[static_cast<std::size_t>(u)], 1);
    }
  }
}

TEST_P(Section3Decomposition, EveryRegularSubmeshPartitionsIntoType1Children) {
  // Lemma 3.1 (2): every regular submesh at level l is a disjoint union of
  // type-1 submeshes at level l+1.
  for (int level = 0; level < dec_.leaf_level(); ++level) {
    dec_.for_each_submesh(level, [&](const RegularSubmesh& sm) {
      std::int64_t child_volume = 0;
      dec_.for_each_submesh(level + 1, 1, [&](const RegularSubmesh& child) {
        // A type-1 child is either fully inside or fully outside.
        const bool inside = sm.region.contains_region(mesh_, child.region);
        if (inside) {
          child_volume += child.region.volume();
        } else {
          // No partial overlap: no node of the child may be inside sm.
          bool any = false;
          for (std::int64_t dx = 0; dx < child.region.extent_at(0) && !any; ++dx) {
            for (std::int64_t dy = 0; dy < child.region.extent_at(1) && !any;
                 ++dy) {
              const Coord p = child.region.coord_at(mesh_, Coord{dx, dy});
              any = sm.region.contains(mesh_, p);
            }
          }
          EXPECT_FALSE(any) << "partial overlap at level " << level;
        }
      });
      EXPECT_EQ(child_volume, sm.region.volume()) << sm.describe();
    });
  }
}

TEST_P(Section3Decomposition, EveryType1SubmeshContainedInSomeParent) {
  // Lemma 3.1 (3) for the submeshes the algorithm actually chains: every
  // *type-1* submesh at level l+1 lies inside a regular submesh at level l
  // (its type-1 parent, and possibly a shifted one too). Note the lemma
  // does not hold for shifted submeshes as children -- e.g. on the 16x16
  // mesh the level-2 type-2 submesh [2,5]x[6,9] fits in no level-1
  // submesh -- but shifted submeshes only ever appear as bridges (the top
  // of a bitonic path), never as children, so the routing algorithm never
  // relies on them having parents.
  for (int level = 1; level <= dec_.leaf_level(); ++level) {
    dec_.for_each_submesh(level, 1, [&](const RegularSubmesh& sm) {
      bool found = false;
      dec_.for_each_submesh(level - 1, [&](const RegularSubmesh& parent) {
        found = found || parent.region.contains_region(mesh_, sm.region);
      });
      EXPECT_TRUE(found) << sm.describe();
    });
  }
}

TEST_P(Section3Decomposition, ShiftedSubmeshesDecomposeIntoType1Children) {
  // The property the bridge construction needs: a shifted submesh at level
  // l is an exact union of type-1 submeshes at level l+1 (its anchors are
  // aligned to the level-(l+1) grid), so a monotonic type-1 path can enter
  // and leave it.
  for (int level = 1; level < dec_.leaf_level(); ++level) {
    dec_.for_each_submesh(level, 2, [&](const RegularSubmesh& sm) {
      std::int64_t child_volume = 0;
      dec_.for_each_submesh(level + 1, 1, [&](const RegularSubmesh& child) {
        if (sm.region.contains_region(mesh_, child.region)) {
          child_volume += child.region.volume();
        }
      });
      EXPECT_EQ(child_volume, sm.region.volume()) << sm.describe();
    });
  }
}

TEST_P(Section3Decomposition, SubmeshAtAgreesWithEnumeration) {
  // The implicit containment query, and the node-id cell keys, return
  // exactly the submesh that the exhaustive enumeration finds.
  std::vector<NodeId> nodes(static_cast<std::size_t>(mesh_.num_nodes()));
  for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
    nodes[static_cast<std::size_t>(u)] = u;
  }
  std::vector<std::int64_t> keys(nodes.size());
  for (int level = 0; level <= dec_.leaf_level(); ++level) {
    for (int type = 1; type <= dec_.num_types(level); ++type) {
      std::map<NodeId, std::int64_t> owner;  // node -> grid key
      dec_.for_each_submesh(level, type, [&](const RegularSubmesh& sm) {
        for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
          if (sm.region.contains_node(mesh_, u)) owner[u] = sm.grid_key;
        }
      });
      dec_.cell_keys(level, type, nodes, keys);
      for (NodeId u = 0; u < mesh_.num_nodes(); ++u) {
        const auto sm = dec_.submesh_at(mesh_.coord(u), level, type);
        const auto it = owner.find(u);
        if (it == owner.end()) {
          EXPECT_FALSE(sm.has_value());
          EXPECT_EQ(keys[static_cast<std::size_t>(u)], -1);
        } else {
          ASSERT_TRUE(sm.has_value());
          EXPECT_EQ(sm->grid_key, it->second);
          EXPECT_EQ(keys[static_cast<std::size_t>(u)], it->second);
        }
      }
    }
  }
  const std::vector<NodeId> off_mesh = {mesh_.num_nodes()};
  EXPECT_THROW(dec_.cell_keys(1, 1, off_mesh, std::span(keys).first(1)),
               std::invalid_argument);
}

TEST_P(Section3Decomposition, GridKeysAreUniquePerFamily) {
  for (int level = 0; level <= dec_.leaf_level(); ++level) {
    for (int type = 1; type <= dec_.num_types(level); ++type) {
      std::set<std::int64_t> keys;
      dec_.for_each_submesh(level, type, [&](const RegularSubmesh& sm) {
        EXPECT_TRUE(keys.insert(sm.grid_key).second) << sm.describe();
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MeshAndTorus, Section3Decomposition, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "torus" : "mesh";
                         });

// --- the Figure 1 counts -------------------------------------------------------

TEST(Decomposition, Figure1CountsOn4x4) {
  // Figure 1 of the paper is drawn on the 4x4 mesh.
  const Mesh m({4, 4});
  const Decomposition dec = Decomposition::section3(m);
  // Level 1, type 1: the four quadrants.
  std::int64_t type1_level1 = 0;
  dec.for_each_submesh(1, 1, [&](const RegularSubmesh&) { ++type1_level1; });
  EXPECT_EQ(type1_level1, 4);
  // Level 1, type 2: 3x3 translated grid minus the 4 discarded corners.
  std::int64_t type2_level1 = 0;
  std::int64_t internal = 0;
  dec.for_each_submesh(1, 2, [&](const RegularSubmesh& sm) {
    ++type2_level1;
    if (!sm.truncated) ++internal;
  });
  EXPECT_EQ(type2_level1, 5);
  EXPECT_EQ(internal, 1);  // the centered [1,2]^2 submesh
  // Level 2, type 1: sixteen 1x1 leaves... no, 2x2 blocks: 4 per side / 2.
  std::int64_t type1_level2 = 0;
  dec.for_each_submesh(2, 1, [&](const RegularSubmesh&) { ++type1_level2; });
  EXPECT_EQ(type1_level2, 16);  // level 2 of a 4x4 mesh is the leaf level
}

TEST(Decomposition, CornerDiscardOnlyOnMesh) {
  const Mesh m({8, 8});
  const Decomposition dec = Decomposition::section3(m);
  // The corner node (0,0) has no valid type-2 submesh at level 1: its
  // piece is truncated in both dimensions and discarded.
  EXPECT_FALSE(dec.submesh_at(Coord{0, 0}, 1, 2).has_value());
  // But an edge (non-corner) node does.
  EXPECT_TRUE(dec.submesh_at(Coord{0, 4}, 1, 2).has_value());
  // On the torus everything wraps and nothing is discarded.
  const Mesh t({8, 8}, true);
  const Decomposition dect = Decomposition::section3(t);
  EXPECT_TRUE(dect.submesh_at(Coord{0, 0}, 1, 2).has_value());
}

TEST(Decomposition, TorusShiftedSubmeshesAreFullSize) {
  const Mesh t({16, 16}, true);
  const Decomposition dec = Decomposition::section3(t);
  for (int level = 1; level < dec.leaf_level(); ++level) {
    dec.for_each_submesh(level, 2, [&](const RegularSubmesh& sm) {
      EXPECT_EQ(sm.region.volume(), dec.side_at(level) * dec.side_at(level));
      EXPECT_FALSE(sm.truncated);
    });
  }
}

TEST(Decomposition, TruncatedSubmeshKeepsIntersectionOnly) {
  const Mesh m({8, 8});
  const Decomposition dec = Decomposition::section3(m);
  // Level 1 (m=4, shift 2): the submesh containing (0,4) spans x in [-2,1]
  // truncated to [0,1], y in [2,5].
  const auto sm = dec.submesh_at(Coord{0, 4}, 1, 2);
  ASSERT_TRUE(sm.has_value());
  EXPECT_TRUE(sm->truncated);
  EXPECT_EQ(sm->region.anchor(), (Coord{0, 2}));
  EXPECT_EQ(sm->region.extent(), (Coord{2, 4}));
}

TEST(Decomposition, CommonSubmeshRequiresSameCell) {
  const Mesh m({8, 8});
  const Decomposition dec = Decomposition::section3(m);
  // (0,3) and (0,4) straddle the level-1 type-1 cut but share a type-2 cell.
  EXPECT_FALSE(dec.common_submesh(Coord{0, 3}, Coord{0, 4}, 1, 1).has_value());
  EXPECT_TRUE(dec.common_submesh(Coord{0, 3}, Coord{0, 4}, 1, 2).has_value());
}

TEST(Decomposition, DeepestCommonPrefersDeeperLevels) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section3(m);
  // Two nodes in the same 2x2 block.
  const RegularSubmesh a = dec.deepest_common(Coord{0, 0}, Coord{1, 1}, true);
  EXPECT_EQ(a.level, 3);  // side-2 block
  // Straddling the global bisector: type-1 would force the root, the
  // access graph finds a small type-2 bridge.
  const RegularSubmesh tree =
      dec.deepest_common(Coord{7, 0}, Coord{8, 0}, false);
  EXPECT_EQ(tree.level, 0);
  const RegularSubmesh graph =
      dec.deepest_common(Coord{7, 0}, Coord{8, 0}, true);
  EXPECT_GT(graph.level, 0);
  EXPECT_EQ(graph.type, 2);
}

TEST(Decomposition, CountSubmeshesMatchesEnumeration) {
  const Mesh m({16, 16});
  const Decomposition dec = Decomposition::section3(m);
  EXPECT_EQ(dec.count_submeshes(0), 1);
  // Level 1: 4 type-1 + (3x3 - 4 corners = 5) type-2.
  EXPECT_EQ(dec.count_submeshes(1), 9);
}

// --- Lemma 4.1 (d-dimensional bridge existence) --------------------------------

TEST(DecompositionNd, EveryLevelHasAtLeastDPlus1FamiliesWhenWideEnough) {
  const Mesh m = Mesh::cube(3, 32);
  const Decomposition dec = Decomposition::section4(m);
  for (int level = 1; level <= dec.leaf_level(); ++level) {
    if (dec.side_at(level) >= 4) {
      EXPECT_GE(dec.num_types(level), 4) << "level " << level;
    }
  }
}

TEST(DecompositionNd, ShiftedFamiliesAreDistinct) {
  const Mesh m = Mesh::cube(2, 32);
  const Decomposition dec = Decomposition::section4(m);
  // d = 2: divisor 4, lambda = m/4.
  EXPECT_EQ(dec.num_types(1), 4);
  EXPECT_EQ(dec.shift_lambda(1), 4);  // m_1 = 16
  std::set<std::int64_t> anchors;
  for (int type = 1; type <= 4; ++type) {
    const auto sm = dec.submesh_at(Coord{16, 16}, 1, type);
    ASSERT_TRUE(sm.has_value());
    anchors.insert(sm->region.anchor_at(0));
  }
  EXPECT_EQ(anchors.size(), 4U);
}

TEST(DecompositionNd, Figure2Setup3D) {
  // Figure 2: d = 3, m_l = 4, lambda = 1, four types.
  const Mesh m = Mesh::cube(3, 16, true);
  const Decomposition dec = Decomposition::section4(m);
  const int level = 2;  // side 4
  EXPECT_EQ(dec.side_at(level), 4);
  EXPECT_EQ(dec.shift_lambda(level), 1);
  EXPECT_EQ(dec.num_types(level), 4);
  // Anchors of consecutive types differ by 1 in every dimension.
  for (int type = 1; type < 4; ++type) {
    const auto a = dec.submesh_at(Coord{8, 8, 8}, level, type);
    const auto b = dec.submesh_at(Coord{8, 8, 8}, level, type + 1);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(pos_mod(b->region.anchor_at(d) - a->region.anchor_at(d), 4), 1);
    }
  }
}

}  // namespace
}  // namespace oblivious
