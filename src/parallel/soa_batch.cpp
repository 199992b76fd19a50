#include "parallel/soa_batch.hpp"

#include <algorithm>

#include "mesh/mesh.hpp"
#include "parallel/packet_driver.hpp"
#include "routing/baselines.hpp"
#include "routing/bounded_valiant.hpp"
#include "routing/hierarchical.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace oblivious {

namespace {

using Kind = SoaBatchEngine::Kernel::Kind;

inline void reset_out(NodeId s, NodeId t, SegmentPath& out) {
  out.segments.clear();
  out.source = s;
  out.dest = t;
}

inline void sample_length(IntHistogram* hist, std::uint64_t packet,
                          const SegmentPath& sp) {
  if (hist != nullptr && path_length_sampled(packet)) {
    hist->add(sp.length(), kPathLengthSampleStride);
  }
}

// One leg of a one-bend subpath inside the enclosing region anchored at
// `enc_anchor`: the run along each dimension is the offset-space delta,
// exactly append_segments_in_region (on the plain mesh the anchors cancel
// and the delta is the absolute coordinate difference).
inline void emit_leg(const Mesh& mesh, bool torus,
                     const std::int64_t* enc_anchor, const int* perm, int dim,
                     const Coord& cur, const Coord& nxt, SegmentPath& out) {
  for (int q = 0; q < dim; ++q) {
    const int d = perm[q];
    const std::size_t dd = static_cast<std::size_t>(d);
    std::int64_t run;
    if (torus) {
      const std::int64_t side = mesh.side(d);
      run = pos_mod(nxt[dd] - enc_anchor[d], side) -
            pos_mod(cur[dd] - enc_anchor[d], side);
    } else {
      run = nxt[dd] - cur[dd];
    }
    out.append(d, run);
  }
}

// Every Fisher-Yates outcome for d == 3, indexed j2 * 2 + j1 where j2 is
// the first drawn swap index (uniform_below(3)) and j1 the second
// (uniform_below(2)): start [0,1,2], swap(p[2], p[j2]), swap(p[1], p[j1]).
constexpr int kPerm3[6][3] = {{1, 2, 0}, {2, 1, 0}, {2, 0, 1},
                              {0, 2, 1}, {1, 0, 2}, {0, 1, 2}};

}  // namespace

SoaBatchEngine::Kernel SoaBatchEngine::kernel_for(const Router& router) {
  Kernel k;
  k.router = &router;
  if (dynamic_cast<const DimensionOrderRouter*>(&router) != nullptr) {
    k.kind = Kind::kEcube;
  } else if (dynamic_cast<const RandomDimOrderRouter*>(&router) != nullptr) {
    k.kind = Kind::kRandomDimOrder;
  } else if (dynamic_cast<const ValiantRouter*>(&router) != nullptr) {
    k.kind = Kind::kValiant;
  } else if (const auto* b =
                 dynamic_cast<const BoundedValiantRouter*>(&router)) {
    k.kind = Kind::kBoundedValiant;
    k.bounded = b;
  } else if (const auto* a = dynamic_cast<const AncestorRouter*>(&router)) {
    k.kind = Kind::kHierarchical;
    k.ancestor = a;
  } else if (const auto* n = dynamic_cast<const NdRouter*>(&router)) {
    const bool frugal = n->randomness_mode() == NdRouter::RandomnessMode::kFrugal;
    k.kind = frugal ? Kind::kNdFrugal : Kind::kHierarchical;
    k.nd = n;
  }
  return k;
}

void SoaBatchEngine::push_uniform(std::uint64_t bound) {
  DrawOp op;
  op.bound = bound;
  if (bound <= 1) {
    op.nbits = 0;  // uniform_below(1): value 0, no word consumed
    op.pow2 = true;
  } else {
    op.nbits = static_cast<std::uint8_t>(ceil_log2(bound));
    op.pow2 = (bound & (bound - 1)) == 0;
  }
  ops_.push_back(op);
}

void SoaBatchEngine::push_bits(int nbits) {
  DrawOp op;
  op.bound = 0;  // bits(n): top n bits, rejection-free
  op.nbits = static_cast<std::uint8_t>(nbits);
  op.pow2 = true;
  ops_.push_back(op);
}

void SoaBatchEngine::push_perm(int dim) {
  // Fisher-Yates swap indices of Rng::random_permutation, in draw order.
  for (int i = dim - 1; i > 0; --i) {
    push_uniform(static_cast<std::uint64_t>(i) + 1);
  }
}

void SoaBatchEngine::exec_program(std::size_t nlanes) {
  constexpr std::size_t W = RngLanes::kLanes;
  draw_vals_.resize(ops_.size() * W);
  bool all_pow2 = true;
  std::size_t ndraws = 0;
  for (const DrawOp& op : ops_) {
    all_pow2 = all_pow2 && op.pow2;
    ndraws += op.nbits != 0 ? 1 : 0;
  }
  if (all_pow2) {
    // No rejection anywhere (power-of-two sides make this the common
    // case): every raw word is drawn in one register-resident sweep,
    // then shifted into its op row.
    blk_words_.resize(ndraws * W);
    lanes_.next_block(blk_words_.data(), ndraws);
    std::size_t r = 0;
    for (std::size_t o = 0; o < ops_.size(); ++o) {
      std::uint64_t* row = &draw_vals_[o * W];
      if (ops_[o].nbits == 0) {
        std::fill_n(row, W, std::uint64_t{0});
        continue;
      }
      const std::uint64_t* words = &blk_words_[r * W];
      ++r;
      const int shift = 64 - static_cast<int>(ops_[o].nbits);
      OBLV_PRAGMA_SIMD
      for (std::size_t k = 0; k < W; ++k) row[k] = words[k] >> shift;
    }
    return;
  }
  for (std::size_t o = 0; o < ops_.size(); ++o) {
    const DrawOp op = ops_[o];
    std::uint64_t* row = &draw_vals_[o * W];
    if (op.nbits == 0) {
      std::fill_n(row, W, std::uint64_t{0});
      continue;
    }
    lanes_.next(row);  // raw words land in place; shift below
    const int shift = 64 - static_cast<int>(op.nbits);
    if (op.pow2) {
      OBLV_PRAGMA_SIMD
      for (std::size_t k = 0; k < W; ++k) row[k] >>= shift;
    } else {
      // Rejection fix-up advances ONLY the rejected lane, so every lane
      // stays exactly on its scalar stream. Inactive tail lanes are never
      // read and never fixed up.
      for (std::size_t k = 0; k < nlanes; ++k) {
        std::uint64_t v = row[k] >> shift;
        while (v >= op.bound) v = lanes_.next_lane(k) >> shift;
        row[k] = v;
      }
      for (std::size_t k = nlanes; k < W; ++k) row[k] >>= shift;
    }
  }
}

void SoaBatchEngine::decode_perm(std::size_t op_base, int dim,
                                 std::size_t lane, int* perm) {
  for (int q = 0; q < dim; ++q) perm[q] = q;
  std::size_t o = op_base;
  for (int i = dim - 1; i > 0; --i, ++o) {
    const auto j =
        static_cast<int>(draw_vals_[o * RngLanes::kLanes + lane]);
    std::swap(perm[i], perm[j]);
  }
}

void SoaBatchEngine::run_ecube(const Mesh& mesh, NodeId s, NodeId t,
                               std::span<const std::uint64_t> packets,
                               std::uint64_t /*seed*/,
                               std::span<SegmentPath> out,
                               IntHistogram* path_lengths) {
  // Deterministic router: every packet of the pair shares one segment
  // list, built once and copied out.
  const Coord cs = mesh.coord(s);
  const Coord ct = mesh.coord(t);
  SegmentPath proto;
  reset_out(s, t, proto);
  for (int d = 0; d < mesh.dim(); ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    proto.append(d, mesh.displacement(cs[dd], ct[dd], d));
  }
  for (const std::uint64_t i : packets) {
    out[i] = proto;
    sample_length(path_lengths, i, out[i]);
  }
}

void SoaBatchEngine::run_dim_order(const Mesh& mesh, NodeId s, NodeId t,
                                   std::span<const std::uint64_t> packets,
                                   std::uint64_t seed,
                                   std::span<SegmentPath> out,
                                   IntHistogram* path_lengths) {
  const int dim = mesh.dim();
  const Coord cs = mesh.coord(s);
  const Coord ct = mesh.coord(t);
  Coord disp;
  disp.resize(static_cast<std::size_t>(dim));
  for (int d = 0; d < dim; ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    disp[dd] = mesh.displacement(cs[dd], ct[dd], d);
  }
  ops_.clear();
  push_perm(dim);
  perm_.resize(static_cast<std::size_t>(dim));

  std::uint64_t idx[RngLanes::kLanes];
  for (std::size_t p = 0; p < packets.size(); p += RngLanes::kLanes) {
    const std::size_t nlanes = std::min(RngLanes::kLanes, packets.size() - p);
    for (std::size_t k = 0; k < nlanes; ++k) idx[k] = packets[p + k];
    lanes_.seed_packets(seed, idx, nlanes);
    exec_program(nlanes);
    for (std::size_t k = 0; k < nlanes; ++k) {
      const std::uint64_t i = packets[p + k];
      SegmentPath& o = out[i];
      reset_out(s, t, o);
      decode_perm(0, dim, k, perm_.data());
      for (int q = 0; q < dim; ++q) {
        const int d = perm_[static_cast<std::size_t>(q)];
        o.append(d, disp[static_cast<std::size_t>(d)]);
      }
      sample_length(path_lengths, i, o);
    }
  }
}

void SoaBatchEngine::run_valiant(const Mesh& mesh, NodeId s, NodeId t,
                                 std::span<const std::uint64_t> packets,
                                 std::uint64_t seed,
                                 std::span<SegmentPath> out,
                                 IntHistogram* path_lengths) {
  const int dim = mesh.dim();
  const Coord cs = mesh.coord(s);
  const Coord ct = mesh.coord(t);
  ops_.clear();
  for (int d = 0; d < dim; ++d) {
    push_uniform(static_cast<std::uint64_t>(mesh.side(d)));
  }
  push_perm(dim);
  push_perm(dim);
  const std::size_t perm1 = static_cast<std::size_t>(dim);
  const std::size_t perm2 = perm1 + static_cast<std::size_t>(dim - 1);
  perm_.resize(static_cast<std::size_t>(dim));

  std::uint64_t idx[RngLanes::kLanes];
  Coord mid;
  mid.resize(static_cast<std::size_t>(dim));
  for (std::size_t p = 0; p < packets.size(); p += RngLanes::kLanes) {
    const std::size_t nlanes = std::min(RngLanes::kLanes, packets.size() - p);
    for (std::size_t k = 0; k < nlanes; ++k) idx[k] = packets[p + k];
    lanes_.seed_packets(seed, idx, nlanes);
    exec_program(nlanes);
    for (std::size_t k = 0; k < nlanes; ++k) {
      const std::uint64_t i = packets[p + k];
      SegmentPath& o = out[i];
      reset_out(s, t, o);
      // The whole-mesh region is anchored at 0, so the drawn offsets ARE
      // the intermediate's coordinates.
      for (int d = 0; d < dim; ++d) {
        mid[static_cast<std::size_t>(d)] = static_cast<std::int64_t>(
            draw_vals_[static_cast<std::size_t>(d) * RngLanes::kLanes + k]);
      }
      decode_perm(perm1, dim, k, perm_.data());
      for (int q = 0; q < dim; ++q) {
        const int d = perm_[static_cast<std::size_t>(q)];
        const std::size_t dd = static_cast<std::size_t>(d);
        o.append(d, mesh.displacement(cs[dd], mid[dd], d));
      }
      decode_perm(perm2, dim, k, perm_.data());
      for (int q = 0; q < dim; ++q) {
        const int d = perm_[static_cast<std::size_t>(q)];
        const std::size_t dd = static_cast<std::size_t>(d);
        o.append(d, mesh.displacement(mid[dd], ct[dd], d));
      }
      sample_length(path_lengths, i, o);
    }
  }
}

void SoaBatchEngine::run_bounded_valiant(const Mesh& mesh, const Region& box,
                                         NodeId s, NodeId t,
                                         std::span<const std::uint64_t> packets,
                                         std::uint64_t seed,
                                         std::span<SegmentPath> out,
                                         IntHistogram* path_lengths) {
  const int dim = mesh.dim();
  const bool torus = mesh.torus();
  const Coord cs = mesh.coord(s);
  const Coord ct = mesh.coord(t);
  const Coord& anchor = box.anchor();
  ops_.clear();
  for (int d = 0; d < dim; ++d) {
    push_uniform(static_cast<std::uint64_t>(box.extent_at(d)));
  }
  push_perm(dim);
  push_perm(dim);
  const std::size_t perm1 = static_cast<std::size_t>(dim);
  const std::size_t perm2 = perm1 + static_cast<std::size_t>(dim - 1);
  perm_.resize(static_cast<std::size_t>(dim));

  std::uint64_t idx[RngLanes::kLanes];
  Coord mid;
  mid.resize(static_cast<std::size_t>(dim));
  for (std::size_t p = 0; p < packets.size(); p += RngLanes::kLanes) {
    const std::size_t nlanes = std::min(RngLanes::kLanes, packets.size() - p);
    for (std::size_t k = 0; k < nlanes; ++k) idx[k] = packets[p + k];
    lanes_.seed_packets(seed, idx, nlanes);
    exec_program(nlanes);
    for (std::size_t k = 0; k < nlanes; ++k) {
      const std::uint64_t i = packets[p + k];
      SegmentPath& o = out[i];
      reset_out(s, t, o);
      for (int d = 0; d < dim; ++d) {
        const std::size_t dd = static_cast<std::size_t>(d);
        std::int64_t x = anchor[dd] + static_cast<std::int64_t>(
            draw_vals_[dd * RngLanes::kLanes + k]);
        if (torus) x = pos_mod(x, mesh.side(d));
        mid[dd] = x;
      }
      decode_perm(perm1, dim, k, perm_.data());
      emit_leg(mesh, torus, anchor.data(), perm_.data(), dim, cs, mid, o);
      decode_perm(perm2, dim, k, perm_.data());
      emit_leg(mesh, torus, anchor.data(), perm_.data(), dim, mid, ct, o);
      sample_length(path_lengths, i, o);
    }
  }
}

void SoaBatchEngine::compute_rows(const Mesh& mesh, const Coord& cs,
                                  const Coord& ct, std::size_t legs,
                                  bool frugal) {
  constexpr std::size_t W = RngLanes::kLanes;
  const std::size_t d = static_cast<std::size_t>(mesh.dim());
  const bool torus = mesh.torus();

  if (!torus && !frugal) {
    // Plain-mesh naive fast path: coordinates are anchor + draw, so each
    // run row is a constant (anchor deltas and endpoints) plus the draw
    // difference of adjacent legs -- no intermediate coordinate pass.
    const std::size_t ops_per_leg = 2 * d - 1;
    for (std::size_t l = 0; l <= legs; ++l) {
      for (std::size_t dd = 0; dd < d; ++dd) {
        std::int64_t* r = &run_rows_[(l * d + dd) * W];
        const std::uint64_t* vfrom =
            l == 0 ? nullptr : &draw_vals_[((l - 1) * ops_per_leg + dd) * W];
        const std::uint64_t* vto =
            l == legs ? nullptr : &draw_vals_[(l * ops_per_leg + dd) * W];
        if (l == 0) {
          const std::int64_t base = wp_anchor_[dd] - cs[dd];
          OBLV_PRAGMA_SIMD
          for (std::size_t k = 0; k < W; ++k) {
            r[k] = base + static_cast<std::int64_t>(vto[k]);
          }
        } else if (l == legs) {
          const std::int64_t base = ct[dd] - wp_anchor_[(l - 1) * d + dd];
          OBLV_PRAGMA_SIMD
          for (std::size_t k = 0; k < W; ++k) {
            r[k] = base - static_cast<std::int64_t>(vfrom[k]);
          }
        } else {
          const std::int64_t base =
              wp_anchor_[l * d + dd] - wp_anchor_[(l - 1) * d + dd];
          OBLV_PRAGMA_SIMD
          for (std::size_t k = 0; k < W; ++k) {
            r[k] = base + static_cast<std::int64_t>(vto[k]) -
                   static_cast<std::int64_t>(vfrom[k]);
          }
        }
      }
    }
    return;
  }

  // Waypoint coordinate rows: anchor + offset per (leg, dim, lane). The
  // naive program's draws ARE the offsets; the frugal program reduces the
  // bridge-scale words modulo the leg extent first.
  for (std::size_t l = 0; l < legs; ++l) {
    for (std::size_t dd = 0; dd < d; ++dd) {
      std::int64_t* c = &coord_rows_[(l * d + dd) * W];
      const std::int64_t a = wp_anchor_[l * d + dd];
      if (frugal) {
        const std::uint64_t* v =
            &draw_vals_[(d - 1 + 2 * dd + (l % 2)) * W];
        const std::int64_t extent = wp_extent_[l * d + dd];
        for (std::size_t k = 0; k < W; ++k) {
          c[k] = a + static_cast<std::int64_t>(v[k]) % extent;
        }
      } else {
        const std::uint64_t* v = &draw_vals_[(l * (2 * d - 1) + dd) * W];
        OBLV_PRAGMA_SIMD
        for (std::size_t k = 0; k < W; ++k) {
          c[k] = a + static_cast<std::int64_t>(v[k]);
        }
      }
      if (torus) {
        const std::int64_t side = mesh.side(static_cast<int>(dd));
        for (std::size_t k = 0; k < W; ++k) c[k] = pos_mod(c[k], side);
      }
    }
  }

  // Run rows: leg l's straight run along dd, for every lane. On the
  // plain mesh the enclosing anchors cancel and the run is the plain
  // coordinate delta; on the torus it is the offset-space delta of
  // append_segments_in_region.
  for (std::size_t l = 0; l <= legs; ++l) {
    for (std::size_t dd = 0; dd < d; ++dd) {
      std::int64_t* r = &run_rows_[(l * d + dd) * W];
      const std::int64_t* from =
          l == 0 ? nullptr : &coord_rows_[((l - 1) * d + dd) * W];
      const std::int64_t* to =
          l == legs ? nullptr : &coord_rows_[(l * d + dd) * W];
      const std::int64_t sc = cs[dd];
      const std::int64_t tc = ct[dd];
      if (!torus) {
        if (l == 0) {
          OBLV_PRAGMA_SIMD
          for (std::size_t k = 0; k < W; ++k) r[k] = to[k] - sc;
        } else if (l == legs) {
          OBLV_PRAGMA_SIMD
          for (std::size_t k = 0; k < W; ++k) r[k] = tc - from[k];
        } else {
          OBLV_PRAGMA_SIMD
          for (std::size_t k = 0; k < W; ++k) r[k] = to[k] - from[k];
        }
      } else {
        const std::int64_t ea = enc_anchor_[l * d + dd];
        const std::int64_t side = mesh.side(static_cast<int>(dd));
        for (std::size_t k = 0; k < W; ++k) {
          const std::int64_t a = pos_mod((l == legs ? tc : to[k]) - ea, side);
          const std::int64_t b = pos_mod((l == 0 ? sc : from[k]) - ea, side);
          r[k] = a - b;
        }
      }
    }
  }
}

void SoaBatchEngine::run_hierarchical(const Mesh& mesh, NodeId s, NodeId t,
                                      std::size_t up_count,
                                      std::span<const std::uint64_t> packets,
                                      std::uint64_t seed,
                                      std::span<SegmentPath> out,
                                      IntHistogram* path_lengths) {
  constexpr std::size_t W = RngLanes::kLanes;
  const int dim = mesh.dim();
  const std::size_t legs = chain_.size();
  const std::size_t d = static_cast<std::size_t>(dim);
  const Coord cs = mesh.coord(s);
  const Coord ct = mesh.coord(t);

  // Static plan columns + the draw program: per leg, d waypoint draws
  // over the leg region's extents, then the leg's dimension permutation;
  // a final permutation for the run to t (connect_chain_into's order).
  wp_anchor_.resize(legs * d);
  enc_anchor_.resize((legs + 1) * d);
  ops_.clear();
  for (std::size_t l = 0; l < legs; ++l) {
    const Region& region = chain_[l];
    const Region& enclosing = (l <= up_count) ? chain_[l] : chain_[l - 1];
    for (int dd = 0; dd < dim; ++dd) {
      wp_anchor_[l * d + static_cast<std::size_t>(dd)] = region.anchor_at(dd);
      enc_anchor_[l * d + static_cast<std::size_t>(dd)] =
          enclosing.anchor_at(dd);
      push_uniform(static_cast<std::uint64_t>(region.extent_at(dd)));
    }
    push_perm(dim);
  }
  for (int dd = 0; dd < dim; ++dd) {
    enc_anchor_[legs * d + static_cast<std::size_t>(dd)] =
        chain_.back().anchor_at(dd);
  }
  push_perm(dim);  // the final run to t draws its own dimension order
  const std::size_t ops_per_leg = d + (d - 1);
  coord_rows_.resize(legs * d * W);
  run_rows_.resize((legs + 1) * d * W);
  seg_buf_.resize((legs + 1) * d + 1);  // slot 0 is the merge sentinel
  perm_.resize(d);

  std::uint64_t idx[W];
  for (std::size_t k = 0; k < std::min(W, packets.size()); ++k) {
    __builtin_prefetch(&out[packets[k]], 1);
  }
  for (std::size_t p = 0; p < packets.size(); p += W) {
    const std::size_t nlanes = std::min(W, packets.size() - p);
    // Software pipeline for the scattered out[i] writes: the NEXT block's
    // headers start moving now, and this block's (already prefetched)
    // headers are dereferenced to prefetch their segment storage -- the
    // seed/draw/row work below covers the latency.
    for (std::size_t k = p + W; k < std::min(p + 2 * W, packets.size()); ++k) {
      __builtin_prefetch(&out[packets[k]], 1);
    }
    for (std::size_t k = 0; k < nlanes; ++k) {
      idx[k] = packets[p + k];
      // A warm path spans several lines of (possibly spilled) storage.
      const Segment* sd = out[idx[k]].segments.data();
      __builtin_prefetch(sd, 1);
      __builtin_prefetch(reinterpret_cast<const char*>(sd) + 64, 1);
      __builtin_prefetch(reinterpret_cast<const char*>(sd) + 128, 1);
    }
    lanes_.seed_packets(seed, idx, nlanes);
    exec_program(nlanes);
    compute_rows(mesh, cs, ct, legs, /*frugal=*/false);
    for (std::size_t k = 0; k < nlanes; ++k) {
      const std::uint64_t i = packets[p + k];
      // Merge into the L1-hot scratch (SegmentPath::append semantics),
      // then land the packet's segments with ONE bulk copy -- the
      // scattered out[i] header is touched once instead of per append.
      // Branch-free merge (SegmentPath::append semantics): the zero-run
      // and same-dim tests are coin flips on small extents, so predicated
      // stores beat branches. buf[-1] is a dim == -1 sentinel that absorbs
      // the first element's merge probe.
      Segment* buf = seg_buf_.data() + 1;
      buf[-1].dim = -1;
      std::size_t m = 0;
      const auto emit = [&](int dm, std::int64_t run) {
        const bool nz = run != 0;
        const bool mrg = nz & (buf[m - 1].dim == dm) &
                         ((buf[m - 1].run > 0) == (run > 0));
        buf[m - 1].run += mrg ? run : 0;
        buf[m] = Segment{dm, run};
        m += static_cast<std::size_t>(nz & !mrg);
      };
      for (std::size_t l = 0; l <= legs; ++l) {
        // The final leg has no waypoint draws before its permutation.
        const std::size_t perm_op = l * ops_per_leg + (l < legs ? d : 0);
        const std::int64_t* runs = &run_rows_[l * d * W];
        if (dim == 2) {
          // d == 2 permutations are one draw j: the first dim is 1 - j,
          // branch-free (the bit is a coin flip -- a branch mispredicts).
          const std::size_t j =
              static_cast<std::size_t>(draw_vals_[perm_op * W + k]);
          const std::size_t f = 1 - j;
          emit(static_cast<int>(f), runs[f * W + k]);
          emit(static_cast<int>(j), runs[j * W + k]);
        } else if (dim == 3) {
          const std::size_t j2 =
              static_cast<std::size_t>(draw_vals_[perm_op * W + k]);
          const std::size_t j1 =
              static_cast<std::size_t>(draw_vals_[(perm_op + 1) * W + k]);
          const int* pr = kPerm3[j2 * 2 + j1];
          emit(pr[0], runs[static_cast<std::size_t>(pr[0]) * W + k]);
          emit(pr[1], runs[static_cast<std::size_t>(pr[1]) * W + k]);
          emit(pr[2], runs[static_cast<std::size_t>(pr[2]) * W + k]);
        } else {
          decode_perm(perm_op, dim, k, perm_.data());
          for (int q = 0; q < dim; ++q) {
            const int dq = perm_[static_cast<std::size_t>(q)];
            emit(dq, runs[static_cast<std::size_t>(dq) * W + k]);
          }
        }
      }
      SegmentPath& o = out[i];
      o.source = s;
      o.dest = t;
      o.segments.assign(buf, m);
      sample_length(path_lengths, i, o);
    }
  }
}

void SoaBatchEngine::run_frugal(const Mesh& mesh, NodeId s, NodeId t,
                                std::size_t up_count, int bits_per_coord,
                                std::span<const std::uint64_t> packets,
                                std::uint64_t seed, std::span<SegmentPath> out,
                                IntHistogram* path_lengths) {
  const int dim = mesh.dim();
  const std::size_t legs = chain_.size();
  const std::size_t d = static_cast<std::size_t>(dim);
  const Coord cs = mesh.coord(s);
  const Coord ct = mesh.coord(t);

  wp_anchor_.resize(legs * d);
  wp_extent_.resize(legs * d);
  enc_anchor_.resize((legs + 1) * d);
  for (std::size_t l = 0; l < legs; ++l) {
    const Region& region = chain_[l];
    const Region& enclosing = (l <= up_count) ? chain_[l] : chain_[l - 1];
    for (int dd = 0; dd < dim; ++dd) {
      wp_anchor_[l * d + static_cast<std::size_t>(dd)] = region.anchor_at(dd);
      wp_extent_[l * d + static_cast<std::size_t>(dd)] = region.extent_at(dd);
      enc_anchor_[l * d + static_cast<std::size_t>(dd)] =
          enclosing.anchor_at(dd);
    }
  }
  for (int dd = 0; dd < dim; ++dd) {
    enc_anchor_[legs * d + static_cast<std::size_t>(dd)] =
        chain_.back().anchor_at(dd);
  }

  // Section 5.3 draw order: one permutation, then the two bridge-scale
  // coordinate vectors v1, v2 with their per-dimension words interleaved.
  ops_.clear();
  push_perm(dim);
  for (std::size_t dd = 0; dd < d; ++dd) {
    push_bits(bits_per_coord);  // v1[dd]
    push_bits(bits_per_coord);  // v2[dd]
  }
  perm_.resize(d);
  constexpr std::size_t W = RngLanes::kLanes;
  coord_rows_.resize(legs * d * W);
  run_rows_.resize((legs + 1) * d * W);
  seg_buf_.resize((legs + 1) * d + 1);  // slot 0 is the merge sentinel

  std::uint64_t idx[W];
  for (std::size_t k = 0; k < std::min(W, packets.size()); ++k) {
    __builtin_prefetch(&out[packets[k]], 1);
  }
  for (std::size_t p = 0; p < packets.size(); p += W) {
    const std::size_t nlanes = std::min(W, packets.size() - p);
    // Same out[i] prefetch pipeline as run_hierarchical.
    for (std::size_t k = p + W; k < std::min(p + 2 * W, packets.size()); ++k) {
      __builtin_prefetch(&out[packets[k]], 1);
    }
    for (std::size_t k = 0; k < nlanes; ++k) {
      idx[k] = packets[p + k];
      // A warm path spans several lines of (possibly spilled) storage.
      const Segment* sd = out[idx[k]].segments.data();
      __builtin_prefetch(sd, 1);
      __builtin_prefetch(reinterpret_cast<const char*>(sd) + 64, 1);
      __builtin_prefetch(reinterpret_cast<const char*>(sd) + 128, 1);
    }
    lanes_.seed_packets(seed, idx, nlanes);
    exec_program(nlanes);
    compute_rows(mesh, cs, ct, legs, /*frugal=*/true);
    for (std::size_t k = 0; k < nlanes; ++k) {
      const std::uint64_t i = packets[p + k];
      // Branch-free merge (SegmentPath::append semantics): the zero-run
      // and same-dim tests are coin flips on small extents, so predicated
      // stores beat branches. buf[-1] is a dim == -1 sentinel that absorbs
      // the first element's merge probe.
      Segment* buf = seg_buf_.data() + 1;
      buf[-1].dim = -1;
      std::size_t m = 0;
      const auto emit = [&](int dm, std::int64_t run) {
        const bool nz = run != 0;
        const bool mrg = nz & (buf[m - 1].dim == dm) &
                         ((buf[m - 1].run > 0) == (run > 0));
        buf[m - 1].run += mrg ? run : 0;
        buf[m] = Segment{dm, run};
        m += static_cast<std::size_t>(nz & !mrg);
      };
      // One permutation shared by every leg (Section 5.3 draw order).
      if (dim == 2) {
        const std::size_t j = static_cast<std::size_t>(draw_vals_[k]);
        const std::size_t f = 1 - j;
        for (std::size_t l = 0; l <= legs; ++l) {
          const std::int64_t* runs = &run_rows_[l * d * W];
          emit(static_cast<int>(f), runs[f * W + k]);
          emit(static_cast<int>(j), runs[j * W + k]);
        }
      } else {
        decode_perm(0, dim, k, perm_.data());
        for (std::size_t l = 0; l <= legs; ++l) {
          const std::int64_t* runs = &run_rows_[l * d * W];
          for (int q = 0; q < dim; ++q) {
            const int dq = perm_[static_cast<std::size_t>(q)];
            emit(dq, runs[static_cast<std::size_t>(dq) * W + k]);
          }
        }
      }
      SegmentPath& o = out[i];
      o.source = s;
      o.dest = t;
      o.segments.assign(buf, m);
      sample_length(path_lengths, i, o);
    }
  }
}

void SoaBatchEngine::run(const Kernel& kernel, const Demand& pair,
                         std::span<const std::uint64_t> packets,
                         std::uint64_t seed, std::span<SegmentPath> out,
                         IntHistogram* path_lengths) {
  OBLV_CHECK(kernel.supported(),
             "SoA engine invoked for an unsupported router");
  const Mesh& mesh = kernel.router->mesh();
  const NodeId s = pair.src;
  const NodeId t = pair.dst;
  if (s == t) {
    // Trivial path; no randomness consumed (matches every router's early
    // return).
    for (const std::uint64_t i : packets) {
      reset_out(s, t, out[i]);
      sample_length(path_lengths, i, out[i]);
    }
    return;
  }
  switch (kernel.kind) {
    case Kind::kEcube:
      run_ecube(mesh, s, t, packets, seed, out, path_lengths);
      break;
    case Kind::kRandomDimOrder:
      run_dim_order(mesh, s, t, packets, seed, out, path_lengths);
      break;
    case Kind::kValiant:
      run_valiant(mesh, s, t, packets, seed, out, path_lengths);
      break;
    case Kind::kBoundedValiant:
      run_bounded_valiant(mesh, kernel.bounded->box_for(s, t), s, t, packets,
                          seed, out, path_lengths);
      break;
    case Kind::kHierarchical: {
      std::size_t up_count = 0;
      int bridge_level = 0;
      if (kernel.ancestor != nullptr) {
        kernel.ancestor->resolve_plan(s, t, chain_, up_count, bridge_level);
      } else {
        kernel.nd->resolve_plan(s, t, chain_, up_count, bridge_level);
      }
      run_hierarchical(mesh, s, t, up_count, packets, seed, out, path_lengths);
      break;
    }
    case Kind::kNdFrugal: {
      std::size_t up_count = 0;
      int bridge_level = 0;
      kernel.nd->resolve_plan(s, t, chain_, up_count, bridge_level);
      const int bh = kernel.nd->decomposition().height_of(bridge_level);
      run_frugal(mesh, s, t, up_count, bh, packets, seed, out, path_lengths);
      break;
    }
    case Kind::kUnsupported:
      OBLV_UNREACHABLE("checked above");
  }
}

}  // namespace oblivious
