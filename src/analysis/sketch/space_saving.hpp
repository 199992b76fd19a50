// Deterministic SpaceSaving top-k tracker over (dimension, line) keys.
//
// All load on an edge comes from runs along that edge's own line, so a
// line's total charged hops upper-bound the max edge load on it. Tracking
// the k heaviest lines (by charged hops) gives the sketch accountant a
// candidate set for max-load queries without any per-edge state
// (DESIGN.md section 14).
//
// Determinism: insertion follows the classic SpaceSaving rule with a
// fixed eviction tie-break (smallest count, then smallest key), and
// merge() is a pure function of the two summaries (union counts, sorted
// truncation). Merge order still matters when truncation bites, which is
// why parallel folds go through LoadAccountant::fold_block -- it replays
// shard summaries in block-index order.
//
// Layout: every array is sized by the constructor and never grows, so
// add(), clear() and merge()'s rebuild allocate nothing. The tracked
// entries live in a min-heap ordered by (count, key), whose root is the
// eviction victim; a linear-probing hash index maps a key to its heap
// position. The index is only probed, never iterated (D002), and
// entries_sorted() is the one way to read the tracker out.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace oblivious {

class SpaceSavingLines {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  // upper bound on the key's true weight
    std::uint64_t error = 0;  // count - error lower-bounds the true weight
  };

  // \pre 1 <= capacity < 2^31.
  explicit SpaceSavingLines(std::size_t capacity);

  void add(std::uint64_t key, std::uint64_t weight);
  void clear();

  // Deterministic summary merge: counts and errors add for shared keys,
  // the union is re-truncated to capacity by (count desc, key asc), and
  // every truncated key counts as an eviction.
  // \pre other has the same capacity.
  void merge(const SpaceSavingLines& other);

  // Tracked entries ordered by (count desc, key asc).
  std::vector<Entry> entries_sorted() const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  // Evictions since construction or clear() (heavy-hitter churn). Reset
  // by clear() so per-block shard summaries report only their own block;
  // merge() accumulates the other summary's count.
  std::uint64_t evictions() const { return evictions_; }
  std::size_t memory_bytes() const;

 private:
  struct Node {
    std::uint64_t count;
    std::uint64_t key;
    std::uint64_t error;
    std::uint32_t bucket;  // the index_ bucket that points at this node
  };

  // index_ bucket holding `key`, or the empty bucket where it would go.
  std::uint32_t find_bucket(std::uint64_t key) const;
  // Empties `bucket` and backward-shifts the rest of its probe run.
  void unlink(std::uint32_t bucket);
  // Restore heap order after heap_[pos] got heavier (sift_down) or was
  // appended (sift_up), keeping every moved node's index_ bucket current.
  void sift_down(std::size_t pos);
  void sift_up(std::size_t pos);

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint64_t evictions_ = 0;
  // Min-heap on (count, key) over heap_[0, size_).
  std::vector<Node> heap_;
  // Open addressing over >= 2 * capacity buckets: a key's heap position,
  // or kEmpty.
  std::vector<std::uint32_t> index_;
  int index_shift_ = 0;  // 64 - log2(index_.size()): Fibonacci-hash shift
};

}  // namespace oblivious
