#include "routing/baselines.hpp"

#include "routing/one_bend.hpp"
#include "util/check.hpp"

namespace oblivious {

namespace {

// The baselines need no scratch state: their only intermediates are
// SmallVec-inline coordinates and permutations. One body per algorithm
// serves both path forms.

template <typename PathT>
void dim_order_route(const Mesh& mesh, NodeId s, NodeId t,
                     std::span<const int> order, PathT& out) {
  reset_path(s, t, out);
  append_one_bend(mesh, mesh.coord(s), mesh.coord(t), order, out);
}

// A uniformly random intermediate node, dimension order on both legs.
template <typename PathT>
void valiant_route(const Mesh& mesh, NodeId s, NodeId t, Rng& rng,
                   PathT& out) {
  reset_path(s, t, out);
  if (s == t) return;
  const Coord mid = Region::whole(mesh).random_coord(mesh, rng);
  const auto order1 = rng.random_permutation(mesh.dim());
  append_one_bend(mesh, mesh.coord(s), mid,
                  std::span<const int>(order1.data(), order1.size()), out);
  const auto order2 = rng.random_permutation(mesh.dim());
  append_one_bend(mesh, mid, mesh.coord(t),
                  std::span<const int>(order2.data(), order2.size()), out);
}

}  // namespace

void DimensionOrderRouter::route_into(NodeId s, NodeId t, Rng& /*rng*/,
                                      RouteScratch& /*scratch*/,
                                      Path& out) const {
  expects_route_args(s, t);
  const auto order = identity_order(mesh_->dim());
  dim_order_route(*mesh_, s, t, {order.data(), order.size()}, out);
  ensures_route_result(s, t, out);
}

void DimensionOrderRouter::route_segments_into(NodeId s, NodeId t,
                                               Rng& /*rng*/,
                                               RouteScratch& /*scratch*/,
                                               SegmentPath& out) const {
  expects_route_args(s, t);
  const auto order = identity_order(mesh_->dim());
  dim_order_route(*mesh_, s, t, {order.data(), order.size()}, out);
  ensures_route_result(s, t, out);
}

void RandomDimOrderRouter::route_into(NodeId s, NodeId t, Rng& rng,
                                      RouteScratch& /*scratch*/,
                                      Path& out) const {
  expects_route_args(s, t);
  const auto order = rng.random_permutation(mesh_->dim());
  dim_order_route(*mesh_, s, t, {order.data(), order.size()}, out);
  ensures_route_result(s, t, out);
}

void RandomDimOrderRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                               RouteScratch& /*scratch*/,
                                               SegmentPath& out) const {
  expects_route_args(s, t);
  const auto order = rng.random_permutation(mesh_->dim());
  dim_order_route(*mesh_, s, t, {order.data(), order.size()}, out);
  ensures_route_result(s, t, out);
}

void ValiantRouter::route_into(NodeId s, NodeId t, Rng& rng,
                               RouteScratch& /*scratch*/, Path& out) const {
  expects_route_args(s, t);
  valiant_route(*mesh_, s, t, rng, out);
  ensures_route_result(s, t, out);
}

void ValiantRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                        RouteScratch& /*scratch*/,
                                        SegmentPath& out) const {
  expects_route_args(s, t);
  valiant_route(*mesh_, s, t, rng, out);
  ensures_route_result(s, t, out);
}

}  // namespace oblivious
