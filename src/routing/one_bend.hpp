// Dimension-by-dimension shortest subpaths (the "at most one-bend paths"
// of Section 3.3, step 7).
//
// A subpath between two intermediate nodes corrects the coordinates one
// dimension at a time, in a caller-supplied order; with a random order
// this is the randomized dimension-by-dimension routing the paper uses
// for every hop of the bitonic path.
#pragma once

#include <span>

#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/region.hpp"
#include "mesh/segment_path.hpp"

namespace oblivious {

// Appends to `path` the nodes of a dimension-order shortest path from the
// last node of `path` (which must be at coordinate `from`) to `to`,
// correcting dimensions in the order given. On the torus each dimension
// takes the shorter way around.
void append_dim_order_path(const Mesh& mesh, const Coord& from, const Coord& to,
                           std::span<const int> order, Path& path);

// Same, but the subpath is guaranteed to stay inside `region`: movement
// happens in the region's offset space, which matters on the torus where
// the globally shorter way around may leave the region. Both endpoints
// must lie in the region.
void append_path_in_region(const Mesh& mesh, const Region& region,
                           const Coord& from, const Coord& to,
                           std::span<const int> order, Path& path);

// Segment-emitting twins of the two appends above: one O(1) run per
// corrected dimension instead of one node per hop. Precondition: the
// segment path currently ends at `from` (the caller tracks the cursor).
void append_dim_order_segments(const Mesh& mesh, const Coord& from,
                               const Coord& to, std::span<const int> order,
                               SegmentPath& sp);
void append_segments_in_region(const Mesh& mesh, const Region& region,
                               const Coord& from, const Coord& to,
                               std::span<const int> order, SegmentPath& sp);

// Identity order {0, 1, ..., d-1}.
SmallVec<int, 8> identity_order(int dim);

// The appends above, picked by the output's type, so one routing body
// serves both route_into and route_segments_into.
inline void append_one_bend(const Mesh& mesh, const Coord& from,
                            const Coord& to, std::span<const int> order,
                            Path& out) {
  append_dim_order_path(mesh, from, to, order, out);
}
inline void append_one_bend(const Mesh& mesh, const Coord& from,
                            const Coord& to, std::span<const int> order,
                            SegmentPath& out) {
  append_dim_order_segments(mesh, from, to, order, out);
}
inline void append_one_bend(const Mesh& mesh, const Region& region,
                            const Coord& from, const Coord& to,
                            std::span<const int> order, Path& out) {
  append_path_in_region(mesh, region, from, to, order, out);
}
inline void append_one_bend(const Mesh& mesh, const Region& region,
                            const Coord& from, const Coord& to,
                            std::span<const int> order, SegmentPath& out) {
  append_segments_in_region(mesh, region, from, to, order, out);
}

// Resets a caller-owned output to the empty path from s to t (capacity
// retained).
inline void reset_path(NodeId s, NodeId /*t*/, Path& out) {
  out.nodes.clear();
  out.nodes.push_back(s);
}
inline void reset_path(NodeId s, NodeId t, SegmentPath& out) {
  out.segments.clear();
  out.source = s;
  out.dest = t;
}

}  // namespace oblivious
