// Deterministic conservative-update count-min sketch.
//
// A depth x width table of saturating uint64 counters. Row hashes are
// splitmix64 with counter-derived per-row seeds, so estimates are a pure
// function of (config seed, update multiset) -- platform-independent and
// replayable. Two update flavors:
//
//  * add() is LINEAR: the table is a sum of per-update one-hot rows, so
//    cell-wise merge() commutes and any shard merge order is
//    bit-identical.
//  * add_conservative() only raises each row cell to the new lower bound
//    min_row(cell) + count (the classic conservative update). It tightens
//    estimates but makes the table depend on update GROUPING, which is
//    why the accountant confines it to deterministic fixed-size blocks
//    (DESIGN.md section 14).
//
// Either way every cell >= the true count hashed into it, so estimates
// never underestimate, and conservative cells are <= the linear cells --
// the classic count-min (eps, delta) bound is an upper envelope for both.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace oblivious {

class CountMinSketch {
 public:
  static constexpr int kMaxDepth = 16;

  // \pre width is a power of two >= 16; depth in [1, kMaxDepth].
  CountMinSketch(std::size_t width, int depth, std::uint64_t seed);

  void add(std::uint64_t key, std::uint64_t count) {
    for (int r = 0; r < depth_; ++r) {
      cells_[row_offset(r) + slot(r, key)] += count;
    }
  }

  void add_conservative(std::uint64_t key, std::uint64_t count) {
    std::size_t idx[kMaxDepth];
    cells_of(key, idx);
    add_conservative_at(idx, count);
  }

  // add_conservative in two halves, so a caller can find and prefetch a
  // key's cells well before it applies the update: cells_of() fills
  // idx[0, depth) with the key's cell in each row, and
  // add_conservative_at() performs the update on those cells.
  void cells_of(std::uint64_t key, std::size_t* idx) const {
    for (int r = 0; r < depth_; ++r) idx[r] = row_offset(r) + slot(r, key);
  }
  void prefetch_cells(const std::size_t* idx) const {
    for (int r = 0; r < depth_; ++r) __builtin_prefetch(&cells_[idx[r]], 1);
  }
  void add_conservative_at(const std::size_t* idx, std::uint64_t count) {
    std::uint64_t est = ~std::uint64_t{0};
    for (int r = 0; r < depth_; ++r) {
      est = cells_[idx[r]] < est ? cells_[idx[r]] : est;
    }
    const std::uint64_t target = est + count;
    for (int r = 0; r < depth_; ++r) {
      if (cells_[idx[r]] < target) cells_[idx[r]] = target;
    }
  }

  std::uint64_t estimate(std::uint64_t key) const {
    std::uint64_t est = ~std::uint64_t{0};
    for (int r = 0; r < depth_; ++r) {
      const std::uint64_t cell = cells_[row_offset(r) + slot(r, key)];
      est = cell < est ? cell : est;
    }
    return est;
  }

  // Cell-wise sum. Commutative and associative, so sharded tables merge
  // in any order; conservative cells stay overestimates under summation.
  // \pre other was built with the same width, depth, and seed.
  void merge(const CountMinSketch& other);
  void clear();

  bool same_shape(const CountMinSketch& other) const {
    return width_ == other.width_ && depth_ == other.depth_ &&
           seed_ == other.seed_;
  }

  std::size_t width() const { return width_; }
  int depth() const { return depth_; }
  std::uint64_t seed() const { return seed_; }
  std::size_t memory_bytes() const { return cells_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t row_offset(int r) const {
    return static_cast<std::size_t>(r) * width_;
  }
  std::size_t slot(int r, std::uint64_t key) const {
    return static_cast<std::size_t>(
        splitmix64(key ^ row_seeds_[static_cast<std::size_t>(r)]) & mask_);
  }

  std::size_t width_;
  std::uint64_t mask_;
  int depth_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> row_seeds_;
  std::vector<std::uint64_t> cells_;  // depth rows of width cells
};

}  // namespace oblivious
