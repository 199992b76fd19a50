#include "analysis/lower_bound.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "util/check.hpp"

namespace oblivious {

double CongestionLowerBound::value() const {
  return std::max({boundary, average, boundary > 0.0 || average > 0.0 ? 1.0 : 0.0});
}

namespace {

double average_load_bound(const Mesh& mesh, const RoutingProblem& problem) {
  if (mesh.num_edges() == 0) return 0.0;
  return static_cast<double>(problem.total_distance(mesh)) /
         static_cast<double>(mesh.num_edges());
}

}  // namespace

CongestionLowerBound congestion_lower_bound(const Mesh& mesh,
                                            const Decomposition& decomposition,
                                            const RoutingProblem& problem) {
  OBLV_REQUIRE(&decomposition.mesh() == &mesh, "decomposition of a different mesh");
  CongestionLowerBound out;
  out.average = average_load_bound(mesh, problem);

  // Both endpoints of every demand, then their cells' keys in one family.
  std::vector<NodeId> ends;
  ends.reserve(2 * problem.demands.size());
  for (const Demand& demand : problem.demands) {
    ends.push_back(demand.src);
    ends.push_back(demand.dst);
  }
  std::vector<std::int64_t> keys(ends.size());
  // A crossed endpoint: its submesh's grid_key and the node. The buffers
  // are sized by the demand count and serve every (level, type).
  struct Crossing {
    std::int64_t key;
    NodeId node;
  };
  std::vector<Crossing> crossed;
  std::vector<Crossing> sorted;
  crossed.reserve(ends.size());
  sorted.reserve(ends.size());

  // Levels 1..k: the root holds every pair, and single nodes give the
  // max-degree bound for hot spots.
  for (int level = 1; level <= decomposition.leaf_level(); ++level) {
    for (int type = 1; type <= decomposition.num_types(level); ++type) {
      decomposition.cell_keys(level, type, ends, keys);
      // A family partitions the mesh: a submesh holding one endpoint
      // holds the other exactly when both lie in the same cell.
      crossed.clear();
      std::int64_t top = 0;
      for (std::size_t j = 0; j < ends.size(); j += 2) {
        if (keys[j] == keys[j + 1]) continue;
        for (const std::size_t e : {j, j + 1}) {
          if (keys[e] < 0) continue;  // a discarded corner
          crossed.push_back({keys[e], ends[e]});
          top = std::max(top, keys[e]);
        }
      }
      // LSD radix sort by key, 11 bits a pass, so runs of a key are
      // adjacent and come in ascending key order.
      for (int bit = 0; (top >> bit) > 0; bit += 11) {
        std::array<std::size_t, 2049> at{};
        for (const Crossing& c : crossed) ++at[((c.key >> bit) & 2047) + 1];
        for (std::size_t b = 1; b < at.size(); ++b) at[b] += at[b - 1];
        sorted.resize(crossed.size());
        for (const Crossing& c : crossed) sorted[at[(c.key >> bit) & 2047]++] = c;
        crossed.swap(sorted);
      }
      // Ascending (level, type, grid_key) and a strict > keep the smallest
      // key among equal bounds. out(M') >= 1, so a submesh crossed no more
      // than `out.boundary` times cannot win and is never built.
      for (std::size_t a = 0, b = 0; a < crossed.size(); a = b) {
        while (b < crossed.size() && crossed[b].key == crossed[a].key) ++b;
        const auto count = static_cast<double>(b - a);
        if (count <= out.boundary) continue;
        const auto sm =
            decomposition.submesh_at(mesh.coord(crossed[a].node), level, type);
        OBLV_CHECK(sm.has_value() && sm->grid_key == crossed[a].key,
                   "crossing keyed by its submesh");
        const std::int64_t out_edges = mesh.boundary_edge_count(sm->region);
        OBLV_CHECK(out_edges > 0, "crossed submesh must have boundary edges");
        const double bound = count / static_cast<double>(out_edges);
        if (bound > out.boundary) {
          out.boundary = bound;
          out.boundary_argmax = *sm;
        }
      }
    }
  }
  return out;
}

CongestionLowerBound congestion_lower_bound(const Mesh& mesh,
                                            const RoutingProblem& problem) {
  CongestionLowerBound out;
  out.average = average_load_bound(mesh, problem);

  // Per-dimension prefix cuts: the submeshes [0, c] x (full other dims).
  for (int d = 0; d < mesh.dim(); ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::int64_t side = mesh.side(d);
    if (side < 2) continue;
    std::vector<std::int64_t> src_at(static_cast<std::size_t>(side), 0);
    std::vector<std::int64_t> dst_at(static_cast<std::size_t>(side), 0);
    for (const Demand& demand : problem.demands) {
      if (demand.src == demand.dst) continue;
      ++src_at[static_cast<std::size_t>(mesh.coord(demand.src)[dd])];
      ++dst_at[static_cast<std::size_t>(mesh.coord(demand.dst)[dd])];
    }
    const std::int64_t cross_section = mesh.num_nodes() / side;
    std::int64_t src_prefix = 0;
    std::int64_t dst_prefix = 0;
    for (std::int64_t c = 0; c + 1 < side; ++c) {
      src_prefix += src_at[static_cast<std::size_t>(c)];
      dst_prefix += dst_at[static_cast<std::size_t>(c)];
      // Packets with exactly one endpoint in the prefix must cross one of
      // the cut's edges (on the torus the cut has two sides).
      const std::int64_t crossing = std::abs(src_prefix - dst_prefix);
      const std::int64_t cut_edges =
          (mesh.torus() && side > 2) ? 2 * cross_section : cross_section;
      const double b =
          static_cast<double>(crossing) / static_cast<double>(cut_edges);
      out.boundary = std::max(out.boundary, b);
    }
  }
  return out;
}

}  // namespace oblivious
