#include "analysis/sketch/space_saving.hpp"

#include <algorithm>
#include <bit>

namespace oblivious {

namespace {

constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

// Fibonacci hashing: the top bits of key * 2^64/phi spread the dense
// (line, dimension) keys evenly over the buckets.
std::uint32_t home_bucket(std::uint64_t key, int shift) {
  return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
}

// Heap order: the (count, key)-smallest entry is the eviction victim.
template <typename T>
bool lighter(const T& a, const T& b) {
  return a.count != b.count ? a.count < b.count : a.key < b.key;
}

bool entry_heavier(const SpaceSavingLines::Entry& a,
                   const SpaceSavingLines::Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

bool key_less(const SpaceSavingLines::Entry& a, const SpaceSavingLines::Entry& b) {
  return a.key < b.key;
}

}  // namespace

SpaceSavingLines::SpaceSavingLines(std::size_t capacity) : capacity_(capacity) {
  OBLV_REQUIRE(capacity >= 1, "SpaceSaving needs capacity >= 1");
  OBLV_REQUIRE(capacity < (std::size_t{1} << 31),
               "SpaceSaving capacity must fit 32-bit heap positions");
  const std::size_t buckets = std::bit_ceil(2 * capacity);
  index_.assign(buckets, kEmpty);
  index_shift_ = 64 - std::countr_zero(buckets);
  heap_.resize(capacity);
}

std::uint32_t SpaceSavingLines::find_bucket(std::uint64_t key) const {
  const std::uint32_t mask = static_cast<std::uint32_t>(index_.size() - 1);
  std::uint32_t b = home_bucket(key, index_shift_);
  while (index_[b] != kEmpty && heap_[index_[b]].key != key) b = (b + 1) & mask;
  return b;
}

void SpaceSavingLines::unlink(std::uint32_t bucket) {
  const std::uint32_t mask = static_cast<std::uint32_t>(index_.size() - 1);
  const auto next = [mask](std::uint32_t b) { return (b + 1) & mask; };
  std::uint32_t hole = bucket;
  for (std::uint32_t b = next(hole); index_[b] != kEmpty; b = next(b)) {
    const std::uint32_t pos = index_[b];
    const std::uint32_t home = home_bucket(heap_[pos].key, index_shift_);
    // The entry at b may move back into the hole unless its home bucket
    // lies cyclically in (hole, b].
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = pos;
      heap_[pos].bucket = hole;
      hole = b;
    }
  }
  index_[hole] = kEmpty;
}

void SpaceSavingLines::sift_down(std::size_t pos) {
  const Node moving = heap_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size_) break;
    if (child + 1 < size_ && lighter(heap_[child + 1], heap_[child])) ++child;
    if (!lighter(heap_[child], moving)) break;
    heap_[pos] = heap_[child];
    index_[heap_[pos].bucket] = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = moving;
  index_[moving.bucket] = static_cast<std::uint32_t>(pos);
}

void SpaceSavingLines::sift_up(std::size_t pos) {
  const Node moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!lighter(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    index_[heap_[pos].bucket] = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  index_[moving.bucket] = static_cast<std::uint32_t>(pos);
}

void SpaceSavingLines::add(std::uint64_t key, std::uint64_t weight) {
  const std::uint32_t bucket = find_bucket(key);
  if (index_[bucket] != kEmpty) {
    const std::size_t pos = index_[bucket];
    heap_[pos].count += weight;
    sift_down(pos);
    return;
  }
  if (size_ < capacity_) {
    const std::size_t pos = size_++;
    heap_[pos] = {weight, key, 0, bucket};
    sift_up(pos);
    return;
  }
  // Classic SpaceSaving replacement of the (count, key)-smallest entry,
  // the heap root: the new key inherits the victim's count as its error
  // bound. Unlinking the victim may shift the new key's probe run, so its
  // bucket is looked up again.
  unlink(heap_[0].bucket);
  const std::uint64_t floor = heap_[0].count;
  heap_[0] = {floor + weight, key, floor, find_bucket(key)};
  sift_down(0);
  ++evictions_;
}

void SpaceSavingLines::clear() {
  for (std::size_t pos = 0; pos < size_; ++pos) {
    index_[heap_[pos].bucket] = kEmpty;
  }
  size_ = 0;
  evictions_ = 0;
}

std::vector<SpaceSavingLines::Entry> SpaceSavingLines::entries_sorted() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (std::size_t pos = 0; pos < size_; ++pos) {
    out.push_back({heap_[pos].key, heap_[pos].count, heap_[pos].error});
  }
  std::sort(out.begin(), out.end(), entry_heavier);
  return out;
}

void SpaceSavingLines::merge(const SpaceSavingLines& other) {
  OBLV_REQUIRE(capacity_ == other.capacity_,
               "cannot merge SpaceSaving summaries of different capacity");
  // Union by key: sort both summaries' entries together and fold the
  // (at most two) entries of each shared key, then keep the heaviest
  // `capacity_` keys.
  std::vector<Entry> entries;
  entries.reserve(size_ + other.size_);
  const auto append = [&entries](const SpaceSavingLines& s) {
    for (std::size_t pos = 0; pos < s.size_; ++pos) {
      const Node& n = s.heap_[pos];
      entries.push_back({n.key, n.count, n.error});
    }
  };
  append(*this);
  append(other);
  std::sort(entries.begin(), entries.end(), key_less);
  std::size_t kept = 0;
  for (const Entry& e : entries) {
    if (kept > 0 && entries[kept - 1].key == e.key) {
      entries[kept - 1].count += e.count;
      entries[kept - 1].error += e.error;
    } else {
      entries[kept++] = e;
    }
  }
  entries.resize(kept);
  std::sort(entries.begin(), entries.end(), entry_heavier);
  std::uint64_t merged_evictions = evictions_ + other.evictions_;
  if (entries.size() > capacity_) {
    merged_evictions += entries.size() - capacity_;
    entries.resize(capacity_);
  }

  clear();
  evictions_ = merged_evictions;
  for (const Entry& e : entries) {
    const std::uint32_t bucket = find_bucket(e.key);
    index_[bucket] = static_cast<std::uint32_t>(size_);
    heap_[size_++] = {e.count, e.key, e.error, bucket};
  }
  for (std::size_t pos = size_ / 2; pos-- > 0;) sift_down(pos);
}

std::size_t SpaceSavingLines::memory_bytes() const {
  return heap_.capacity() * sizeof(Node) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace oblivious
