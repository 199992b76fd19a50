// Structure-of-arrays batch routing engine.
//
// The scalar batch loop pays per packet for work that only depends on the
// (source, destination) pair: a mutex-guarded plan-cache lookup, chain
// decoding, and virtual route_segments_into dispatch. Because path
// selection is oblivious, packets are free to be processed in any order,
// so the packet driver groups a batch's packets by pair once
// (packet_driver.cpp) and hands this engine one pair group -- or a piece
// of one -- at a time. The engine resolves the pair's routing plan ONCE,
// compiles it into a flat "draw program" (the exact sequence of rng draw
// bounds the scalar router would execute), and then runs the program for
// up to RngLanes::kLanes packets at a time with the lane-parallel counter
// RNG. Per-packet output is emitted through SegmentPath::append, so the
// segment merging semantics are shared with the scalar path by
// construction.
//
// Determinism contract (DESIGN.md section 10, enforced by the equivalence
// tests): for every supported algorithm, seed, thread count, and group
// split, out[i] is bit-identical to what the scalar engine produces with
// packet_rng(seed, i). Lane k of every vectorized draw consumes exactly
// the words of packet k's private stream -- lanes never share state --
// and rejection sampling is fixed up per lane (RngLanes::next_lane).
//
// The engine's buffers are all capacity-retaining members: after a warm-up
// batch the steady state performs zero heap allocations
// (tests/alloc_count_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/region.hpp"
#include "mesh/segment_path.hpp"
#include "rng/rng_lanes.hpp"
#include "routing/router.hpp"
#include "util/stats.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

class AncestorRouter;
class BoundedValiantRouter;
class NdRouter;

class SoaBatchEngine {
 public:
  // A router's kernel, resolved once per batch: finding it takes a chain
  // of dynamic_casts, too slow to repeat for every pair group.
  struct Kernel {
    enum class Kind {
      kUnsupported,
      kEcube,
      kRandomDimOrder,
      kValiant,
      kBoundedValiant,
      kHierarchical,  // AncestorRouter, or NdRouter with naive randomness
      kNdFrugal,
    };
    Kind kind = Kind::kUnsupported;
    const Router* router = nullptr;
    const AncestorRouter* ancestor = nullptr;
    const NdRouter* nd = nullptr;
    const BoundedValiantRouter* bounded = nullptr;

    bool supported() const { return kind != Kind::kUnsupported; }

    // Whether BatchEngine::kAuto groups a batch for this kernel: every
    // kernel but e-cube and random-dim-order. bench_p8_simd's crossover
    // rows (SoA / scalar time per packet by pair-group size k; table in
    // DESIGN.md section 10) put every other kernel below 1 from k = 4
    // (0.32-0.95) and at 0.23-0.79 for k = 16. E-cube and random-dim-order
    // reach only 0.83 and 1.21 at k = 16, and their 50-90 ns scalar
    // packets would pay ~20 ns each for the grouping pass. A grouped
    // batch runs every piece on the kernel, singletons included.
    bool auto_grouped() const {
      return supported() && kind != Kind::kEcube &&
             kind != Kind::kRandomDimOrder;
    }
  };

  // The kernel for `router`; Kind::kUnsupported when it has none. Ecube,
  // random-dim-order, Valiant, bounded Valiant, and the hierarchical
  // routers (both AncestorRouter hierarchies; NdRouter naive and frugal)
  // have one. Staircase draws a data-dependent number of words per hop,
  // so its lanes cannot run a shared program; it and unknown Router
  // subclasses stay scalar.
  static Kernel kernel_for(const Router& router);

  // Routes the packets `packets` -- indices of packets whose demand is
  // `pair` -- into out[i] using the per-packet streams packet_rng(seed,
  // i). When `path_lengths` is non-null, adds the stride-weighted
  // path-length samples for exactly the packets the scalar engine would
  // sample.
  // \pre kernel.supported(); pair's endpoints are nodes of the kernel
  //      router's mesh; every index in `packets` is < out.size().
  void run(const Kernel& kernel, const Demand& pair,
           std::span<const std::uint64_t> packets, std::uint64_t seed,
           std::span<SegmentPath> out, IntHistogram* path_lengths);

 private:
  // One rng draw of the compiled program. nbits == 0 encodes a draw-free
  // op (uniform_below(1) / bits(0)): value 0, no word consumed. bound ==
  // 0 encodes bits(nbits) (top bits, rejection-free); otherwise
  // uniform_below(bound) with rejection when the bound is not a power of
  // two.
  struct DrawOp {
    std::uint64_t bound = 0;
    std::uint8_t nbits = 0;
    bool pow2 = true;
  };

  void push_uniform(std::uint64_t bound);
  void push_bits(int nbits);
  void push_perm(int dim);

  // Runs the compiled program for `nlanes` freshly seeded lanes, filling
  // draw_vals_ (row-major: op index x lane).
  void exec_program(std::size_t nlanes);

  // Fisher-Yates decode of a permutation drawn at ops [op_base,
  // op_base + dim - 1) for `lane`, exactly as Rng::random_permutation.
  void decode_perm(std::size_t op_base, int dim, std::size_t lane, int* perm);

  // Fills coord_rows_ (waypoint coordinates) and run_rows_ (per-leg
  // straight runs) for all lanes of the current block, vectorized across
  // lanes, from draw_vals_ and the static plan columns. `frugal` selects
  // the frugal program's draw layout (shared v1/v2 words reduced modulo
  // each leg extent) over the naive one (one fresh draw per leg and dim).
  void compute_rows(const Mesh& mesh, const Coord& cs, const Coord& ct,
                    std::size_t legs, bool frugal);

  // Per-pair group kernels (s != t).
  void run_ecube(const Mesh& mesh, NodeId s, NodeId t,
                 std::span<const std::uint64_t> packets, std::uint64_t seed,
                 std::span<SegmentPath> out, IntHistogram* path_lengths);
  void run_dim_order(const Mesh& mesh, NodeId s, NodeId t,
                     std::span<const std::uint64_t> packets,
                     std::uint64_t seed, std::span<SegmentPath> out,
                     IntHistogram* path_lengths);
  void run_valiant(const Mesh& mesh, NodeId s, NodeId t,
                   std::span<const std::uint64_t> packets, std::uint64_t seed,
                   std::span<SegmentPath> out, IntHistogram* path_lengths);
  void run_bounded_valiant(const Mesh& mesh, const Region& box, NodeId s,
                           NodeId t, std::span<const std::uint64_t> packets,
                           std::uint64_t seed, std::span<SegmentPath> out,
                           IntHistogram* path_lengths);
  // The hierarchical kernels read the pair's chain from chain_ (filled by
  // resolve_plan); `up_count` selects each leg's enclosing region.
  void run_hierarchical(const Mesh& mesh, NodeId s, NodeId t,
                        std::size_t up_count,
                        std::span<const std::uint64_t> packets,
                        std::uint64_t seed, std::span<SegmentPath> out,
                        IntHistogram* path_lengths);
  void run_frugal(const Mesh& mesh, NodeId s, NodeId t, std::size_t up_count,
                  int bits_per_coord, std::span<const std::uint64_t> packets,
                  std::uint64_t seed, std::span<SegmentPath> out,
                  IntHistogram* path_lengths);

  // --- per-group plan columns ----------------------------------------
  std::vector<Region> chain_;
  std::vector<DrawOp> ops_;
  std::vector<std::uint64_t> draw_vals_;  // ops_.size() x RngLanes::kLanes
  std::vector<std::uint64_t> blk_words_;  // raw words, all-pow2 fast path
  // Leg-major static columns [leg * dim + dd]: waypoint region anchor and
  // extent (chain[leg]), and the enclosing region's anchor (the region
  // the leg's one-bend subpath must stay inside; final leg included).
  std::vector<std::int64_t> wp_anchor_;
  std::vector<std::int64_t> wp_extent_;
  std::vector<std::int64_t> enc_anchor_;
  // Lane-major dynamic rows [(leg * dim + dd) * kLanes + lane]: the
  // block's waypoint coordinates and per-leg straight runs.
  std::vector<std::int64_t> coord_rows_;
  std::vector<std::int64_t> run_rows_;
  std::vector<Segment> seg_buf_;  // one packet's merged segments, staged
  std::vector<int> perm_;  // decoded dimension order, one lane at a time

  RngLanes lanes_;
};

}  // namespace oblivious
