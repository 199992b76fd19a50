// Lower bounds on the optimal congestion C* (Section 2).
//
// For any submesh M', every packet with exactly one endpoint inside M'
// must cross its boundary, so any routing (oblivious or not) has
// congestion at least B(M', Pi) = |Pi'| / out(M'). We evaluate B over
// every regular submesh of the hierarchical decomposition -- one pass over
// the demands per (level, type) in memory linear in the demand count, no
// path construction -- plus the trivial average-load bound
// total_distance / |E|. Every congestion experiment reports C relative to
// this bound.
#pragma once

#include <cstdint>

#include "decomposition/decomposition.hpp"
#include "mesh/mesh.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

struct CongestionLowerBound {
  double boundary = 0.0;   // max over regular submeshes of |Pi'| / out(M')
  double average = 0.0;    // total shortest-path work / |E|
  RegularSubmesh boundary_argmax;  // submesh achieving the boundary bound

  // The combined bound: C* >= max(boundary, average, 1 if any packet moves).
  double value() const;
};

// Boundary congestion over all regular submeshes of `decomposition`; ties
// on the bound go to the smallest (level, type, grid_key).
// \pre `decomposition` was built over this same `mesh` object.
CongestionLowerBound congestion_lower_bound(const Mesh& mesh,
                                            const Decomposition& decomposition,
                                            const RoutingProblem& problem);

// Fallback for meshes without a hierarchical decomposition (non-square or
// non-power-of-two): average-load bound plus per-dimension bisection cuts.
CongestionLowerBound congestion_lower_bound(const Mesh& mesh,
                                            const RoutingProblem& problem);

}  // namespace oblivious
