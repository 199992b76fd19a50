// Sharded fixed-capacity cache of hierarchical route plans.
//
// A route *plan* -- the bitonic chain of regions, its ascent length
// `up_count`, and the bridge level -- depends only on the (source,
// destination) pair: the chain is built from deterministic decomposition
// lookups, and randomness enters only when waypoints are drawn *inside*
// the cached regions. Caching plans is therefore rng-transparent: a hit
// consumes exactly the same draws and yields byte-identical paths
// (route_into_equivalence_test proves this, including under eviction).
//
// Layout: kNumShards shards, each guarded by its own mutex and holding
// kWays-way set-associative slots. An entry stores the chain flattened as
// (anchor, extent) coordinate pairs in a vector that is reused on
// overwrite, so steady-state lookup/insert performs no heap allocation.
// Eviction is round-robin within a set. Hit/miss totals and the byte
// count are kept as relaxed atomics; callers export them through the obs
// metrics registry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "mesh/region.hpp"
#include "mesh/types.hpp"
#include "util/thread_annotations.hpp"

namespace oblivious {

class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  // \pre capacity >= 1 (rounded up so every shard owns at least one set).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  // On hit fills `chain` (cleared first, capacity retained), `up_count`,
  // and `bridge_level`, and returns true. `dim` is the mesh dimension the
  // stored regions were flattened with.
  bool lookup(NodeId s, NodeId t, int dim, std::vector<Region>& chain,
              std::size_t& up_count, int& bridge_level) const;

  // Stores the plan for (s, t), evicting the set's round-robin victim if
  // every way is taken.
  void insert(NodeId s, NodeId t, int dim, const std::vector<Region>& chain,
              std::size_t up_count, int bridge_level);

  // Drops every entry (capacity and counters retained).
  void clear();

  std::size_t capacity() const { return capacity_; }
  Stats stats() const;
  // The routing state the cache holds: its slots plus every entry's
  // flattened-chain capacity (retained across overwrites and clear()).
  std::size_t memory_bytes() const;

 private:
  static constexpr std::size_t kNumShards = 64;
  static constexpr std::size_t kWays = 4;

  struct Entry {
    NodeId s = kInvalidNode;
    NodeId t = kInvalidNode;
    std::uint32_t up_count = 0;
    std::uint32_t chain_len = 0;
    std::int32_t bridge_level = 0;
    // Flattened chain: per region, dim anchors then dim extents.
    std::vector<std::int64_t> data;
  };

  struct Set {
    std::array<Entry, kWays> ways;
    std::uint8_t next_victim = 0;
  };

  struct Shard {
    mutable oblv::Mutex mu;
    std::vector<Set> sets OBLV_GUARDED_BY(mu);
  };

  static std::uint64_t mix(NodeId s, NodeId t);

  std::size_t capacity_ = 0;
  std::size_t sets_per_shard_ = 0;
  std::array<Shard, kNumShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> chain_bytes_{0};  // sum of Entry::data capacity
};

}  // namespace oblivious
