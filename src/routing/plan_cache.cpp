#include "routing/plan_cache.hpp"

#include <algorithm>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace oblivious {

PlanCache::PlanCache(std::size_t capacity) {
  OBLV_REQUIRE(capacity >= 1, "plan cache capacity must be >= 1");
  sets_per_shard_ =
      std::max<std::size_t>(1, (capacity + kNumShards * kWays - 1) /
                                   (kNumShards * kWays));
  capacity_ = sets_per_shard_ * kNumShards * kWays;
  for (Shard& shard : shards_) {
    // The constructor runs single-threaded, but the analysis (rightly)
    // has no happens-before notion: guarded data is locked data, even
    // here. Uncontended, so the cost is one atomic pair per shard, once.
    oblv::MutexLock lock(shard.mu);
    shard.sets.resize(sets_per_shard_);
  }
}

std::uint64_t PlanCache::mix(NodeId s, NodeId t) {
  return splitmix64(static_cast<std::uint64_t>(s) * 0x9E3779B97F4A7C15ULL ^
                    splitmix64(static_cast<std::uint64_t>(t)));
}

bool PlanCache::lookup(NodeId s, NodeId t, int dim, std::vector<Region>& chain,
                       std::size_t& up_count, int& bridge_level) const {
  const std::uint64_t h = mix(s, t);
  const Shard& shard = shards_[h % kNumShards];
  oblv::MutexLock lock(shard.mu);
  const Set& set = shard.sets[(h / kNumShards) % sets_per_shard_];
  for (const Entry& e : set.ways) {
    if (e.s != s || e.t != t) continue;
    chain.clear();
    chain.reserve(e.chain_len);
    const std::size_t d = static_cast<std::size_t>(dim);
    const std::int64_t* flat = e.data.data();
    for (std::uint32_t i = 0; i < e.chain_len; ++i) {
      Coord anchor;
      Coord extent;
      anchor.resize(d);
      extent.resize(d);
      for (std::size_t dd = 0; dd < d; ++dd) anchor[dd] = flat[dd];
      for (std::size_t dd = 0; dd < d; ++dd) extent[dd] = flat[d + dd];
      flat += 2 * d;
      chain.emplace_back(std::move(anchor), std::move(extent));
    }
    up_count = e.up_count;
    bridge_level = e.bridge_level;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void PlanCache::insert(NodeId s, NodeId t, int dim,
                       const std::vector<Region>& chain, std::size_t up_count,
                       int bridge_level) {
  const std::uint64_t h = mix(s, t);
  Shard& shard = shards_[h % kNumShards];
  oblv::MutexLock lock(shard.mu);
  Set& set = shard.sets[(h / kNumShards) % sets_per_shard_];
  Entry* slot = nullptr;
  for (Entry& e : set.ways) {
    if (e.s == s && e.t == t) {
      slot = &e;  // refresh in place (another thread may have raced us)
      break;
    }
    if (slot == nullptr && e.s == kInvalidNode) slot = &e;
  }
  if (slot == nullptr) {
    slot = &set.ways[set.next_victim % kWays];
    set.next_victim = static_cast<std::uint8_t>((set.next_victim + 1) % kWays);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  slot->s = s;
  slot->t = t;
  slot->up_count = static_cast<std::uint32_t>(up_count);
  slot->chain_len = static_cast<std::uint32_t>(chain.size());
  slot->bridge_level = bridge_level;
  const std::size_t d = static_cast<std::size_t>(dim);
  const std::size_t old_capacity = slot->data.capacity();
  slot->data.clear();
  slot->data.reserve(chain.size() * 2 * d);
  for (const Region& region : chain) {
    for (std::size_t dd = 0; dd < d; ++dd) {
      slot->data.push_back(region.anchor()[dd]);
    }
    for (std::size_t dd = 0; dd < d; ++dd) {
      slot->data.push_back(region.extent()[dd]);
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t grown = slot->data.capacity() - old_capacity;
  if (grown != 0) {
    chain_bytes_.fetch_add(grown * sizeof(std::int64_t),
                           std::memory_order_relaxed);
  }
}

void PlanCache::clear() {
  for (Shard& shard : shards_) {
    oblv::MutexLock lock(shard.mu);
    for (Set& set : shard.sets) {
      for (Entry& e : set.ways) {
        e.s = kInvalidNode;
        e.t = kInvalidNode;
        e.chain_len = 0;
        e.data.clear();
      }
      set.next_victim = 0;
    }
  }
}

std::size_t PlanCache::memory_bytes() const {
  return kNumShards * sets_per_shard_ * sizeof(Set) +
         chain_bytes_.load(std::memory_order_relaxed);
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace oblivious
