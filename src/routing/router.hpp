// Oblivious path-selection interface.
//
// A router is *oblivious*: the path for a packet depends only on its own
// source, destination, and private random bits -- never on other packets
// (Section 1). Implementations must therefore be callable independently
// per packet, which also makes them trivially parallel.
//
// A router implements two entry points: `route_into` emits the full node
// list, `route_segments_into` the compact segment form (source + maximal
// axis-aligned runs). Both fill a caller-owned output (capacity retained
// across packets) and thread a RouteScratch for intermediate buffers, so
// the steady state allocates nothing (DESIGN.md section 8). The two draw
// randomness in the same order, so with equal rng state they describe
// the same path; the measurement pipeline consumes segments, the
// simulator consumes nodes. `route` / `route_segments` are allocating
// conveniences over them, identical by construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mesh/contracts.hpp"
#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "rng/rng.hpp"
#include "routing/route_scratch.hpp"
#include "util/contracts.hpp"

namespace oblivious {

class Router {
 public:
  explicit Router(const Mesh& mesh) : mesh_(&mesh) {}
  virtual ~Router() = default;

  const Mesh& mesh() const { return *mesh_; }

  // Selects a path from s to t into `out` (clearing its previous content
  // but keeping its heap capacity), using `scratch` for intermediate
  // state. The same (s, t, rng state) always yields the same path;
  // randomized routers draw all their randomness from `rng` so that
  // attaching a BitMeter measures their per-packet bit consumption.
  // \pre s and t are node ids of this router's mesh.
  // \post `out` is a valid mesh path from s to t.
  virtual void route_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                          Path& out) const = 0;

  // Same path, compact form, without materializing the node list
  // (O(#segments) instead of O(path length)); same contract as route_into.
  // \pre s and t are node ids of this router's mesh.
  virtual void route_segments_into(NodeId s, NodeId t, Rng& rng,
                                   RouteScratch& scratch,
                                   SegmentPath& out) const = 0;

  // Allocating conveniences: route_into / route_segments_into with a
  // fresh scratch and output.
  // \pre s and t are node ids of this router's mesh.
  Path route(NodeId s, NodeId t, Rng& rng) const {
    RouteScratch scratch;
    Path out;
    route_into(s, t, rng, scratch, out);
    return out;
  }
  SegmentPath route_segments(NodeId s, NodeId t, Rng& rng) const {
    RouteScratch scratch;
    SegmentPath out;
    route_segments_into(s, t, rng, scratch, out);
    return out;
  }

  virtual std::string name() const = 0;

  // True for kappa = 1 algorithms (Section 5: a deterministic algorithm
  // fixes the path given source and destination).
  virtual bool deterministic() const { return false; }

 protected:
  // Shared contracts for every route/route_segments implementation; all
  // compile out with the contract macros (default Release: zero cost).
  void expects_route_args(NodeId s, NodeId t) const {
    OBLV_EXPECTS(s >= 0 && s < mesh_->num_nodes(), "source off the mesh");
    OBLV_EXPECTS(t >= 0 && t < mesh_->num_nodes(), "destination off the mesh");
  }
  void ensures_route_result(NodeId s, NodeId t, const Path& p) const {
    OBLV_ENSURES(contracts::validate_path_endpoints(p, s, t),
                 "route must connect exactly (s, t)");
    OBLV_ENSURES(contracts::validate_path_in_mesh(*mesh_, p),
                 "route must follow mesh edges");
  }
  void ensures_route_result(NodeId s, NodeId t, const SegmentPath& sp) const {
    OBLV_ENSURES(contracts::validate_segment_path_endpoints(sp, s, t),
                 "route_segments must connect exactly (s, t)");
    OBLV_ENSURES(contracts::validate_segment_path(*mesh_, sp),
                 "route_segments must stay on the mesh");
  }

  const Mesh* mesh_;
};

// route_into or route_segments_into, picked by the output's type.
inline void route_to(const Router& router, NodeId s, NodeId t, Rng& rng,
                     RouteScratch& scratch, Path& out) {
  router.route_into(s, t, rng, scratch, out);
}
inline void route_to(const Router& router, NodeId s, NodeId t, Rng& rng,
                     RouteScratch& scratch, SegmentPath& out) {
  router.route_segments_into(s, t, rng, scratch, out);
}

}  // namespace oblivious
