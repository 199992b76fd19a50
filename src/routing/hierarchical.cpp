#include "routing/hierarchical.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "mesh/contracts.hpp"
#include "obs/metrics.hpp"
#include "routing/one_bend.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

namespace {

// Connects the waypoints of a bitonic chain into `out`. `chain` holds the
// regions of the bitonic access-graph path (ascent over s, bridge, descent
// over t) and `up_count` how many of them belong to the ascent; waypoint i
// is drawn in chain[i] and the subpath to it stays inside the *enclosing*
// region -- chain[i] while ascending (it contains the previous, smaller
// region) and chain[i-1] while descending. The final leg runs to t inside
// the last chain region. Templated on the waypoint/order callbacks (no
// per-waypoint std::function allocations) and on the output
// representation; `out` is cleared first, so with retained capacity the
// whole emission is allocation-free.
template <typename PathT, typename WaypointFn, typename OrderFn>
void connect_chain_into(const Mesh& mesh, const std::vector<Region>& chain,
                        std::size_t up_count, const Coord& cs, const Coord& ct,
                        NodeId s, NodeId t, const WaypointFn& waypoint,
                        const OrderFn& order_for, PathT& out) {
  OBLV_CHECK(!chain.empty(), "bitonic chain cannot be empty");
  OBLV_EXPECTS(contracts::validate_bitonic_chain(mesh, chain, up_count),
               "Sections 3.2/4.1: chain regions must grow to the bridge and "
               "shrink after it, each containing its smaller neighbour");
  reset_path(s, t, out);
  Coord cur = cs;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Coord nxt = waypoint(chain[i], i);
    const Region& enclosing = (i <= up_count) ? chain[i] : chain[i - 1];
    const auto order = order_for(i);
    append_one_bend(mesh, enclosing, cur, nxt,
                    std::span<const int>(order.data(), order.size()), out);
    cur = nxt;
  }
  const auto order = order_for(chain.size());
  append_one_bend(mesh, chain.back(), cur, ct,
                  std::span<const int>(order.data(), order.size()), out);
}

inline void count_plan_cache(bool hit) {
  if (hit) {
    OBLV_COUNTER_ADD("routing.plan_cache.hits", 1);
  } else {
    OBLV_COUNTER_ADD("routing.plan_cache.misses", 1);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// AncestorRouter (Section 3)
// ---------------------------------------------------------------------------

AncestorRouter::AncestorRouter(const Mesh& mesh, Hierarchy hierarchy,
                               std::size_t plan_cache_capacity)
    : Router(mesh),
      decomp_(mesh, DecompositionConfig::section3()),
      hierarchy_(hierarchy),
      plan_cache_(plan_cache_capacity) {}

std::string AncestorRouter::name() const {
  return hierarchy_ == Hierarchy::kAccessTree ? "access-tree" : "hierarchical-2d";
}

RegularSubmesh AncestorRouter::bridge_at(const Coord& cs,
                                         const Coord& ct) const {
  return decomp_.deepest_common(cs, ct, hierarchy_ == Hierarchy::kAccessGraph);
}

RegularSubmesh AncestorRouter::bridge_for(NodeId s, NodeId t) const {
  return bridge_at(mesh_->coord(s), mesh_->coord(t));
}

void AncestorRouter::build_chain(const Coord& cs, const Coord& ct,
                                 std::vector<Region>& chain,
                                 std::size_t& up_count) const {
  const int k = decomp_.leaf_level();
  const RegularSubmesh bridge = bridge_at(cs, ct);
  OBLV_CHECK(bridge.level < k, "distinct nodes cannot share a leaf submesh");

  // Bitonic chain: type-1 ancestors of s at levels k-1 .. bridge.level+1,
  // the bridge, then type-1 ancestors of t back down.
  chain.clear();
  chain.reserve(static_cast<std::size_t>(2 * (k - bridge.level)) + 1);
  for (int level = k - 1; level > bridge.level; --level) {
    chain.push_back(decomp_.type1_at(cs, level).region);
  }
  up_count = chain.size();
  chain.push_back(bridge.region);
  for (int level = bridge.level + 1; level <= k - 1; ++level) {
    chain.push_back(decomp_.type1_at(ct, level).region);
  }
}

void AncestorRouter::resolve_plan(NodeId s, NodeId t,
                                  std::vector<Region>& chain,
                                  std::size_t& up_count,
                                  int& bridge_level) const {
  bridge_level = 0;
  const bool hit =
      plan_cache_.lookup(s, t, mesh_->dim(), chain, up_count, bridge_level);
  if (!hit) {
    build_chain(mesh_->coord(s), mesh_->coord(t), chain, up_count);
    plan_cache_.insert(s, t, mesh_->dim(), chain, up_count,
                       /*bridge_level=*/0);
  }
  count_plan_cache(hit);
}

template <typename PathT>
void AncestorRouter::route_into_impl(NodeId s, NodeId t, Rng& rng,
                                     RouteScratch& scratch, PathT& out) const {
  if (s == t) {
    reset_path(s, t, out);
    return;
  }
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  std::size_t up_count = 0;
  int bridge_level = 0;
  resolve_plan(s, t, scratch.chain, up_count, bridge_level);

  connect_chain_into<PathT>(
      *mesh_, scratch.chain, up_count, cs, ct, s, t,
      [&](const Region& region, std::size_t) {
        return region.random_coord(*mesh_, rng);
      },
      [&](std::size_t) { return rng.random_permutation(mesh_->dim()); }, out);
}

void AncestorRouter::route_into(NodeId s, NodeId t, Rng& rng,
                                RouteScratch& scratch, Path& out) const {
  expects_route_args(s, t);
  route_into_impl(s, t, rng, scratch, out);
  ensures_route_result(s, t, out);
  OBLV_ENSURES(hierarchy_ != Hierarchy::kAccessGraph || mesh_->dim() != 2 ||
                   contracts::validate_stretch_bound(*mesh_, out, 2),
               "Theorem 3.4: 2D access-graph stretch must be <= 64");
}

void AncestorRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                         RouteScratch& scratch,
                                         SegmentPath& out) const {
  expects_route_args(s, t);
  route_into_impl(s, t, rng, scratch, out);
  ensures_route_result(s, t, out);
  OBLV_ENSURES(hierarchy_ != Hierarchy::kAccessGraph || mesh_->dim() != 2 ||
                   contracts::validate_stretch_bound(*mesh_, out, 2),
               "Theorem 3.4: 2D access-graph stretch must be <= 64");
}

// ---------------------------------------------------------------------------
// NdRouter (Section 4)
// ---------------------------------------------------------------------------

NdRouter::NdRouter(const Mesh& mesh, RandomnessMode mode,
                   BridgeHeightMode bridge_mode,
                   std::size_t plan_cache_capacity)
    : Router(mesh),
      decomp_(Decomposition::section4(mesh)),
      mode_(mode),
      bridge_mode_(bridge_mode),
      plan_cache_(plan_cache_capacity) {}

std::string NdRouter::name() const {
  return mode_ == RandomnessMode::kNaive ? "hierarchical-nd"
                                         : "hierarchical-nd-frugal";
}

std::pair<int, int> NdRouter::heights_for(NodeId s, NodeId t) const {
  const std::int64_t dist = mesh_->distance(s, t);
  OBLV_REQUIRE(dist > 0, "heights are defined for distinct nodes");
  const int k = decomp_.leaf_level();
  const int d = mesh_->dim();
  // Deepest level with side >= 2(d+1) dist has height h; the bridge sits
  // one height above (Section 4.1).
  const int h = ceil_log2(2 * static_cast<std::uint64_t>(d + 1) *
                          static_cast<std::uint64_t>(dist));
  const int lift = bridge_mode_ == BridgeHeightMode::kPrescribed ? 1 : 0;
  const int bridge_height = std::min(h + lift, k);
  const int m1_height =
      std::min(floor_log2(static_cast<std::uint64_t>(dist)), bridge_height - 1);
  return {std::max(m1_height, 0), bridge_height};
}

RegularSubmesh NdRouter::find_bridge(const Coord& cs, const RegularSubmesh& m1,
                                     const RegularSubmesh& m3,
                                     int bridge_level) const {
  // Lemma 4.1: at the prescribed level one of the shifted families
  // contains the bounding box of s and t (and, by grid alignment, the
  // whole of M1 and M3). Near the boundary of a non-torus mesh truncation
  // can defeat a family, so fall upward until a containing submesh is
  // found; the root always works.
  for (int level = bridge_level; level >= 0; --level) {
    for (int type = 1; type <= decomp_.num_types(level); ++type) {
      const auto sm = decomp_.submesh_at(cs, level, type);
      if (!sm.has_value()) continue;
      if (sm->region.contains_region(*mesh_, m1.region) &&
          sm->region.contains_region(*mesh_, m3.region)) {
        return *sm;
      }
    }
  }
  OBLV_UNREACHABLE("the root submesh contains everything");
}

RegularSubmesh NdRouter::bridge_for(NodeId s, NodeId t) const {
  const auto [m1_height, bridge_height] = heights_for(s, t);
  const int k = decomp_.leaf_level();
  const Coord cs = mesh_->coord(s);
  const RegularSubmesh m1 = decomp_.type1_at(cs, k - m1_height);
  const RegularSubmesh m3 = decomp_.type1_at(mesh_->coord(t), k - m1_height);
  return find_bridge(cs, m1, m3, k - bridge_height);
}

void NdRouter::build_chain(NodeId s, NodeId t, const Coord& cs,
                           const Coord& ct, std::vector<Region>& chain,
                           std::size_t& up_count, int& bridge_level) const {
  const int k = decomp_.leaf_level();
  const auto [m1_height, bridge_height] = heights_for(s, t);
  // One type1_at per endpoint: M1 and M3 anchor both the chain ends and
  // the bridge search (find_bridge reuses them instead of recomputing).
  const RegularSubmesh m1 = decomp_.type1_at(cs, k - m1_height);
  const RegularSubmesh m3 = decomp_.type1_at(ct, k - m1_height);
  const RegularSubmesh bridge = find_bridge(cs, m1, m3, k - bridge_height);

  // Chain: ascent over s at heights 1..m1_height, the bridge, descent over
  // t at heights m1_height..1.
  chain.clear();
  chain.reserve(static_cast<std::size_t>(2 * m1_height) + 1);
  for (int height = 1; height < m1_height; ++height) {
    chain.push_back(decomp_.type1_at(cs, k - height).region);
  }
  if (m1_height >= 1) chain.push_back(m1.region);
  up_count = chain.size();
  chain.push_back(bridge.region);
  if (m1_height >= 1) chain.push_back(m3.region);
  for (int height = m1_height - 1; height >= 1; --height) {
    chain.push_back(decomp_.type1_at(ct, k - height).region);
  }
  bridge_level = bridge.level;
}

void NdRouter::resolve_plan(NodeId s, NodeId t, std::vector<Region>& chain,
                            std::size_t& up_count, int& bridge_level) const {
  bridge_level = 0;
  const bool hit =
      plan_cache_.lookup(s, t, mesh_->dim(), chain, up_count, bridge_level);
  if (!hit) {
    build_chain(s, t, mesh_->coord(s), mesh_->coord(t), chain, up_count,
                bridge_level);
    plan_cache_.insert(s, t, mesh_->dim(), chain, up_count, bridge_level);
  }
  count_plan_cache(hit);
}

template <typename PathT>
void NdRouter::route_into_impl(NodeId s, NodeId t, Rng& rng,
                               RouteScratch& scratch, PathT& out) const {
  if (s == t) {
    reset_path(s, t, out);
    return;
  }
  const Coord cs = mesh_->coord(s);
  const Coord ct = mesh_->coord(t);
  const int d = mesh_->dim();
  std::size_t up_count = 0;
  int bridge_level = 0;
  resolve_plan(s, t, scratch.chain, up_count, bridge_level);

  if (mode_ == RandomnessMode::kNaive) {
    connect_chain_into<PathT>(
        *mesh_, scratch.chain, up_count, cs, ct, s, t,
        [&](const Region& region, std::size_t) {
          return region.random_coord(*mesh_, rng);
        },
        [&](std::size_t) { return rng.random_permutation(d); }, out);
    return;
  }

  // Frugal mode (Section 5.3): one dimension order for the whole path and
  // two random coordinate vectors v1, v2 drawn once at the bridge scale;
  // smaller submeshes reuse their low-order bits, alternating between v1
  // and v2 so that the two endpoints of every subpath stay independent.
  const auto order = rng.random_permutation(d);
  const int bh = decomp_.height_of(bridge_level);
  Coord v1;
  Coord v2;
  v1.resize(static_cast<std::size_t>(d));
  v2.resize(static_cast<std::size_t>(d));
  for (std::size_t dd = 0; dd < static_cast<std::size_t>(d); ++dd) {
    v1[dd] = static_cast<std::int64_t>(rng.bits(bh));
    v2[dd] = static_cast<std::int64_t>(rng.bits(bh));
  }
  connect_chain_into<PathT>(
      *mesh_, scratch.chain, up_count, cs, ct, s, t,
      [&](const Region& region, std::size_t i) {
        const Coord& v = (i % 2 == 0) ? v1 : v2;
        Coord off;
        off.resize(static_cast<std::size_t>(d));
        for (std::size_t dd = 0; dd < static_cast<std::size_t>(d); ++dd) {
          // Extents are powers of two except for truncated bridges, where
          // the modulo introduces a mild bias that does not affect the
          // congestion guarantee (truncated submeshes border the mesh).
          off[dd] = v[dd] % region.extent()[dd];
        }
        return region.coord_at(*mesh_, off);
      },
      [&](std::size_t) { return order; }, out);
}

void NdRouter::route_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                          Path& out) const {
  expects_route_args(s, t);
  route_into_impl(s, t, rng, scratch, out);
  ensures_route_result(s, t, out);
  OBLV_ENSURES(bridge_mode_ != BridgeHeightMode::kPrescribed ||
                   contracts::validate_stretch_bound(*mesh_, out, mesh_->dim()),
               "Theorem 4.2: stretch must be <= 40 d (d+1)");
}

void NdRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                   RouteScratch& scratch,
                                   SegmentPath& out) const {
  expects_route_args(s, t);
  route_into_impl(s, t, rng, scratch, out);
  ensures_route_result(s, t, out);
  OBLV_ENSURES(bridge_mode_ != BridgeHeightMode::kPrescribed ||
                   contracts::validate_stretch_bound(*mesh_, out, mesh_->dim()),
               "Theorem 4.2: stretch must be <= 40 d (d+1)");
}

}  // namespace oblivious
