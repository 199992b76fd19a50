#include "routing/staircase.hpp"

#include <cstdlib>

#include "routing/one_bend.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

namespace {

// One hop along `dim` in direction `dir` from `cur`.
void step(const Mesh& mesh, Coord& cur, int dim, int dir, Path& out) {
  const std::size_t dd = static_cast<std::size_t>(dim);
  cur[dd] += dir;
  if (mesh.torus()) cur[dd] = pos_mod(cur[dd], mesh.side(dim));
  OBLV_DCHECK(cur[dd] >= 0 && cur[dd] < mesh.side(dim),
              "staircase walk left the mesh");
  out.nodes.push_back(mesh.node_id(cur));
}
// The run structure follows the draws; consecutive same-dimension hops
// still merge into one run.
void step(const Mesh& /*mesh*/, Coord& /*cur*/, int dim, int dir,
          SegmentPath& out) {
  out.append(dim, dir);
}

// Each hop picks a dimension with probability proportional to its
// remaining distance: sequentially uniform over all monotone shortest
// paths. One body for both path forms.
template <typename PathT>
void staircase_walk(const Mesh& mesh, NodeId s, NodeId t, Rng& rng,
                    PathT& out) {
  reset_path(s, t, out);
  Coord cur = mesh.coord(s);
  const Coord target = mesh.coord(t);

  // Remaining signed displacement per dimension (torus-aware shortest).
  SmallVec<std::int64_t, 8> remaining;
  remaining.resize(cur.size());
  std::int64_t total = 0;
  for (int d = 0; d < mesh.dim(); ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    remaining[dd] = mesh.displacement(cur[dd], target[dd], d);
    total += std::abs(remaining[dd]);
  }

  while (total > 0) {
    std::int64_t pick = static_cast<std::int64_t>(
        rng.uniform_below(static_cast<std::uint64_t>(total)));
    int dim = 0;
    for (int d = 0; d < mesh.dim(); ++d) {
      const std::int64_t r = std::abs(remaining[static_cast<std::size_t>(d)]);
      if (pick < r) {
        dim = d;
        break;
      }
      pick -= r;
    }
    const std::size_t dd = static_cast<std::size_t>(dim);
    const int dir = remaining[dd] > 0 ? 1 : -1;
    step(mesh, cur, dim, dir, out);
    remaining[dd] -= dir;
    --total;
  }
}

}  // namespace

void RandomStaircaseRouter::route_into(NodeId s, NodeId t, Rng& rng,
                                       RouteScratch& /*scratch*/,
                                       Path& out) const {
  expects_route_args(s, t);
  staircase_walk(*mesh_, s, t, rng, out);
  OBLV_CHECK(out.nodes.back() == t, "staircase walk missed the target");
  ensures_route_result(s, t, out);
}

void RandomStaircaseRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                                RouteScratch& /*scratch*/,
                                                SegmentPath& out) const {
  expects_route_args(s, t);
  staircase_walk(*mesh_, s, t, rng, out);
  ensures_route_result(s, t, out);
}

}  // namespace oblivious
