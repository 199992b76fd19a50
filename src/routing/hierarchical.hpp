// The paper's oblivious path-selection algorithms.
//
// AncestorRouter (Section 3): walks the bitonic access-graph path from the
// leaf of s up the type-1 hierarchy to the deepest common ancestor (the
// bridge, possibly a shifted submesh), then down to the leaf of t. In each
// submesh along the way it picks a uniformly random node and joins
// consecutive picks with a random-dimension-order one-bend path that stays
// inside the enclosing submesh. Two hierarchies:
//   * AccessGraph -- type-1 + diagonally shifted submeshes (the paper's 2D
//     algorithm; stretch <= 64 in 2D, O(2^d) in the direct d-dim
//     generalization).
//   * AccessTree -- type-1 only (the Maggs et al. [9] baseline): same
//     congestion behaviour, but the common ancestor of nearby nodes that
//     straddle a partition boundary can be the root, so stretch is
//     unbounded.
//
// NdRouter (Section 4): the d-dimensional algorithm. The bridge is not the
// deepest common ancestor but a shifted submesh at the prescribed height
// h+1 with side >= 4(d+1) dist(s,t) (Lemma 4.1 guarantees one of the
// Theta(d) shifted families contains the bounding box of s and t), which
// keeps every submesh on the bitonic path at least twice as large as its
// predecessor (condition (iii), Appendix A.1) and yields stretch O(d^2)
// and congestion O(d^2 C* log n).
//
// NdRouter's Frugal mode implements the bit-recycling scheme of Section
// 5.3: one random dimension order per packet, and two random nodes drawn
// in the bridge-sized box whose coordinate bits are reused (alternating)
// for all smaller submeshes -- O(d log(D d)) random bits per packet
// instead of the naive O(d log^2(D d)).
// Both hierarchical routers memoize their bitonic chains in a PlanCache:
// the chain depends only on the (s, t) pair, never on the packet's random
// bits, so a cache hit consumes the same draws and produces byte-identical
// paths (rng transparency; see DESIGN.md section 8).
#pragma once

#include "decomposition/decomposition.hpp"
#include "routing/plan_cache.hpp"
#include "routing/router.hpp"

namespace oblivious {

class AncestorRouter final : public Router {
 public:
  enum class Hierarchy {
    kAccessTree,   // type-1 submeshes only (Maggs et al. baseline)
    kAccessGraph,  // type-1 + shifted bridge submeshes (the paper)
  };

  // `plan_cache_capacity` bounds the per-router chain memo (entries, not
  // bytes); small capacities just evict more, they never change paths.
  AncestorRouter(const Mesh& mesh, Hierarchy hierarchy,
                 std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity);

  void route_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                  Path& out) const override;
  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override;

  const Decomposition& decomposition() const { return decomp_; }

  // The bridge submesh this router would use for the pair (exposed for
  // analysis and the Lemma 3.3 experiments).
  RegularSubmesh bridge_for(NodeId s, NodeId t) const;

  // Plan-cache introspection (tests/bench). The cache is rng-transparent
  // memoization, so clearing it is logically const.
  const PlanCache& plan_cache() const { return plan_cache_; }
  void clear_plan_cache() const { plan_cache_.clear(); }

  // Resolves the memoized bitonic chain for the pair (plan-cache lookup,
  // build-and-insert on miss). The chain depends only on (s, t), never on
  // a packet's random bits, so the SoA batch engine resolves each unique
  // pair once per batch instead of once per packet. `bridge_level` is
  // always 0 here (only NdRouter's frugal mode consumes it).
  // \pre s != t, both node ids of this router's mesh.
  void resolve_plan(NodeId s, NodeId t, std::vector<Region>& chain,
                    std::size_t& up_count, int& bridge_level) const;

 private:
  RegularSubmesh bridge_at(const Coord& cs, const Coord& ct) const;
  void build_chain(const Coord& cs, const Coord& ct,
                   std::vector<Region>& chain, std::size_t& up_count) const;
  template <typename PathT>
  void route_into_impl(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                       PathT& out) const;

  Decomposition decomp_;
  Hierarchy hierarchy_;
  mutable PlanCache plan_cache_;
};

class NdRouter final : public Router {
 public:
  enum class RandomnessMode {
    kNaive,   // fresh random bits for every hop
    kFrugal,  // Section 5.3 bit recycling
  };

  // Section 4.1 places the bridge one height ABOVE the deepest level whose
  // side is >= 2(d+1) dist ("due to technical reasons explained in the
  // appendix"). kMinimal uses that deepest level itself -- an ablation
  // measuring what the extra level costs/buys (see bench_a1_ablations).
  enum class BridgeHeightMode {
    kPrescribed,  // h + 1, as in the paper
    kMinimal,     // h
  };

  explicit NdRouter(const Mesh& mesh,
                    RandomnessMode mode = RandomnessMode::kNaive,
                    BridgeHeightMode bridge_mode = BridgeHeightMode::kPrescribed,
                    std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity);

  void route_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                  Path& out) const override;
  void route_segments_into(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                           SegmentPath& out) const override;
  std::string name() const override;

  const Decomposition& decomposition() const { return decomp_; }

  // Heights used for the pair: (h', bridge height), Section 4.1 notation.
  // \pre s != t (heights are defined for distinct nodes).
  std::pair<int, int> heights_for(NodeId s, NodeId t) const;
  // The bridge submesh selected for the pair.
  RegularSubmesh bridge_for(NodeId s, NodeId t) const;

  // Plan-cache introspection (tests/bench); see AncestorRouter.
  const PlanCache& plan_cache() const { return plan_cache_; }
  void clear_plan_cache() const { plan_cache_.clear(); }

  // Memoized chain resolution for the pair; see AncestorRouter. The
  // frugal draw widths derive from `bridge_level` via
  // decomposition().height_of.
  // \pre s != t, both node ids of this router's mesh.
  void resolve_plan(NodeId s, NodeId t, std::vector<Region>& chain,
                    std::size_t& up_count, int& bridge_level) const;

  RandomnessMode randomness_mode() const { return mode_; }

 private:
  // `m1` / `m3` are the already-computed type-1 ancestors of s and t at
  // the m1 level; passing them in keeps each packet to one type1_at lookup
  // per endpoint (they are reused for the chain as well).
  RegularSubmesh find_bridge(const Coord& cs, const RegularSubmesh& m1,
                             const RegularSubmesh& m3, int bridge_level) const;
  void build_chain(NodeId s, NodeId t, const Coord& cs, const Coord& ct,
                   std::vector<Region>& chain, std::size_t& up_count,
                   int& bridge_level) const;
  template <typename PathT>
  void route_into_impl(NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
                       PathT& out) const;

  Decomposition decomp_;
  RandomnessMode mode_;
  BridgeHeightMode bridge_mode_;
  mutable PlanCache plan_cache_;
};

}  // namespace oblivious
