// The hierarchical mesh decomposition of Sections 3.1 and 4.1.
//
// The mesh (side 2^k per dimension) is decomposed into k+1 levels of
// *type-1* submeshes: level l partitions the mesh into cubes of side
// m_l = 2^{k-l} (level 0 is the whole mesh, level k the individual nodes).
// On top of these, each level has *shifted* families ("type-2" in the 2D
// construction, "type-j" in d dimensions): the type-1 grid translated by
// (j-1)*lambda_l per dimension, where
//
//     lambda_l = max(1, m_l / 2^shift_divisor_log2).
//
// Two configurations from the paper:
//   * Section 3 (2D): shift_divisor_log2 = 1 (lambda = m_l/2, one shifted
//     family) with the external corner pieces discarded. This is also the
//     "direct generalization" to d dimensions whose stretch degrades to
//     O(2^d) -- we keep it available as an ablation.
//   * Section 4 (general d): shift_divisor_log2 = ceil(log2(d+1)), giving
//     at least d+1 families per level (at most 2(d+1)), which is what the
//     pigeonhole argument of Lemma 4.1 needs.
//
// On the torus all shifted submeshes wrap and are full-size; on the plain
// mesh, external shifted submeshes are truncated to their intersection
// with M (and, under the Section 3 rule, pieces truncated in every
// dimension -- the corners -- are discarded, since they coincide with
// type-1 submeshes of the next level).
//
// A *regular* submesh (type-1 or shifted) is identified implicitly by
// (level, type, grid index); nothing is materialized, so queries cost O(d)
// arithmetic even on meshes with millions of nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "mesh/mesh.hpp"
#include "mesh/region.hpp"
#include "mesh/types.hpp"

namespace oblivious {

struct DecompositionConfig {
  // lambda_l = max(1, m_l >> shift_divisor_log2).
  int shift_divisor_log2 = 1;
  // Discard shifted submeshes truncated in *every* dimension (Section 3.1).
  bool discard_corners = true;

  // The 2D construction of Section 3 (valid for any d as the paper's
  // "direct generalization"; stretch grows like 2^d for d > 2).
  static DecompositionConfig section3();
  // The d-dimensional construction of Section 4.
  static DecompositionConfig section4(int dim);
};

// One regular submesh, as returned by containment queries.
struct RegularSubmesh {
  int level = 0;           // 0 = root (whole mesh), k = single nodes
  int type = 1;            // 1 = aligned family, 2.. = shifted families
  Region region;           // truncated to the mesh when not a torus
  std::int64_t grid_key = 0;  // unique among submeshes of the same (level, type)
  bool truncated = false;  // mesh only: extends past the boundary

  std::string describe() const;
};

class Decomposition {
 public:
  // \pre the mesh is square with power-of-two side length, and
  // config.shift_divisor_log2 >= 1.
  Decomposition(const Mesh& mesh, DecompositionConfig config);

  static Decomposition section3(const Mesh& mesh);
  static Decomposition section4(const Mesh& mesh);

  const Mesh& mesh() const { return *mesh_; }
  const DecompositionConfig& config() const { return config_; }

  // Number of type-1 levels is k+1 (levels 0..k); k = log2(side).
  int leaf_level() const { return k_; }
  // Side length m_l = 2^{k-l} of submeshes at level l.
  std::int64_t side_at(int level) const;
  // Height (paper's terminology) of a level: k - level.
  int height_of(int level) const { return k_ - level; }
  int level_of_height(int height) const { return k_ - height; }

  // Shift unit lambda_l for the given level.
  std::int64_t shift_lambda(int level) const;
  // Number of families at the level (1 at the root and the leaf level).
  int num_types(int level) const;

  // The type-1 submesh containing p at the level (always exists).
  RegularSubmesh type1_at(const Coord& p, int level) const;

  // The submesh of the given family containing p, or nullopt when that
  // piece is discarded (Section 3 corner rule).
  std::optional<RegularSubmesh> submesh_at(const Coord& p, int level, int type) const;

  // For each node of `nodes`, the grid_key submesh_at reports for its cell
  // of the family, or -1 where that piece is discarded. Shifts and masks on
  // the node ids (sides are 2^k); no submesh is built.
  // \pre keys.size() == nodes.size().
  void cell_keys(int level, int type, std::span<const NodeId> nodes,
                 std::span<std::int64_t> keys) const;

  // The submesh of the family containing both s and t, if one exists.
  std::optional<RegularSubmesh> common_submesh(const Coord& s, const Coord& t,
                                               int level, int type) const;

  // Deepest regular submesh containing both s and t, scanning all levels
  // deepest-first. With use_shifted_types == false this searches the
  // access *tree* of type-1 submeshes only (the Maggs et al. baseline);
  // with true it searches the full access graph including bridges.
  RegularSubmesh deepest_common(const Coord& s, const Coord& t,
                                bool use_shifted_types) const;

  // Enumerates every valid submesh of a family at a level.
  void for_each_submesh(int level, int type,
                        const std::function<void(const RegularSubmesh&)>& fn) const;
  // Enumerates all families at a level.
  void for_each_submesh(int level,
                        const std::function<void(const RegularSubmesh&)>& fn) const;
  std::int64_t count_submeshes(int level) const;

 private:
  // Per-dimension grid index of the family cell containing coordinate x.
  std::int64_t cell_index(std::int64_t x, std::int64_t shift, std::int64_t m) const;
  // Builds the submesh for the given per-dimension indices; nullopt when
  // discarded. `indices` uses the same convention as cell_index.
  std::optional<RegularSubmesh> make_submesh(int level, int type,
                                             const Coord& indices) const;

  const Mesh* mesh_;
  DecompositionConfig config_;
  int k_ = 0;              // log2(side)
  std::int64_t side_ = 0;  // 2^k
};

}  // namespace oblivious
