#include "obs/metrics.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace oblivious::obs {

namespace {

#if defined(OBLV_METRICS_ENABLED) && OBLV_METRICS_ENABLED
std::atomic<bool> g_enabled{true};
#endif

// Global write sequence for gauges: snapshot keeps the newest write when
// the same gauge name was set from several shards.
std::atomic<std::uint64_t> g_gauge_seq{0};

// Bumped by every registry destructor. The thread-local shard caches key
// on the registry address, and a later registry can reuse a destroyed
// one's address, so a generation mismatch discards the whole cache.
std::atomic<std::uint64_t> g_registry_generation{0};

}  // namespace

#if defined(OBLV_METRICS_ENABLED) && OBLV_METRICS_ENABLED
bool metrics_enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_metrics_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}
#endif

// --- Gauge ------------------------------------------------------------------

void Gauge::set(double v) {
  seq_.store(g_gauge_seq.fetch_add(1, std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::reset() {
  value_.store(0.0, std::memory_order_relaxed);
  seq_.store(0, std::memory_order_relaxed);
}

// --- Histogram --------------------------------------------------------------

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;
  int e = 0;
  const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  int sub = static_cast<int>((m - 0.5) * 8.0);
  if (sub < 0) sub = 0;
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  const int idx = (e - kMinExp) * kSubBuckets + sub;
  return std::clamp(idx, 0, kNumBuckets - 1);
}

double Histogram::bucket_upper_bound(int index) {
  OBLV_REQUIRE(index >= 0 && index < kNumBuckets, "bucket index out of range");
  const int e = kMinExp + index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return std::ldexp(0.5 + static_cast<double>(sub + 1) / 8.0, e);
}

void Histogram::add(double v, std::uint64_t weight) {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      weight, std::memory_order_relaxed);
  sum_.fetch_add(v * static_cast<double>(weight), std::memory_order_relaxed);
}

void Histogram::merge_int_histogram(const IntHistogram& h) {
  for (std::size_t i = 0; i < h.num_bins(); ++i) {
    const std::uint64_t c = h.count(static_cast<std::int64_t>(i));
    if (c > 0) add(static_cast<double>(i), c);
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- Snapshot types ---------------------------------------------------------

StatSnapshot StatSnapshot::from(const RunningStats& s) {
  StatSnapshot out;
  out.count = s.count();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.max = s.max();
  out.total = s.mean() * static_cast<double>(s.count());
  return out;
}

double HistogramSnapshot::mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double HistogramSnapshot::quantile(double q) const {
  OBLV_REQUIRE(q >= 0.0 && q <= 1.0, "quantile in [0,1]");
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += static_cast<double>(buckets[i]);
    if (cum >= target && buckets[i] > 0) {
      return Histogram::bucket_upper_bound(static_cast<int>(i));
    }
  }
  for (std::size_t i = buckets.size(); i-- > 0;) {
    if (buckets[i] > 0) return Histogram::bucket_upper_bound(static_cast<int>(i));
  }
  return 0.0;
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: exporters registered with atexit (bench_common)
  // snapshot the global registry after static destruction has begun, so it
  // must outlive every ordinary static. Still reachable, so LSan is quiet.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::~MetricsRegistry() {
  g_registry_generation.fetch_add(1, std::memory_order_release);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  // One cached shard pointer per (thread, registry). A thread touches at
  // most a handful of registries (global + test-local), so linear scan.
  struct TlsEntry {
    const MetricsRegistry* registry;
    Shard* shard;
  };
  static thread_local std::vector<TlsEntry> tls;
  static thread_local std::uint64_t tls_generation = 0;
  const std::uint64_t generation =
      g_registry_generation.load(std::memory_order_acquire);
  if (tls_generation != generation) {
    // Some registry died since the cache was built; every cached pointer
    // is suspect. Dropping them only costs a re-registration (the thread
    // gets a fresh shard, and snapshots merge shards by name anyway).
    tls.clear();
    tls_generation = generation;
  }
  for (const TlsEntry& e : tls) {
    if (e.registry == this) return *e.shard;
  }
  oblv::WriterMutexLock lock(shards_mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  tls.push_back({this, shard});
  return *shard;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Shard& shard = local_shard();
  oblv::MutexLock lock(shard.mu);
  auto& cell = shard.counters[name];
  if (cell == nullptr) cell = std::make_unique<Counter>();
  return *cell;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Shard& shard = local_shard();
  oblv::MutexLock lock(shard.mu);
  auto& cell = shard.gauges[name];
  if (cell == nullptr) cell = std::make_unique<Gauge>();
  return *cell;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Shard& shard = local_shard();
  oblv::MutexLock lock(shard.mu);
  auto& cell = shard.histograms[name];
  if (cell == nullptr) cell = std::make_unique<Histogram>();
  return *cell;
}

namespace {

RunningStats& stat_entry(std::map<std::string, RunningStats, std::less<>>& stats,
                         std::string_view name) {
  const auto it = stats.find(name);
  if (it != stats.end()) return it->second;
  return stats.emplace(std::string(name), RunningStats{}).first->second;
}

}  // namespace

void MetricsRegistry::record_stat(std::string_view name, double value) {
  Shard& shard = local_shard();
  oblv::MutexLock lock(shard.mu);
  stat_entry(shard.stats, name).add(value);
}

void MetricsRegistry::merge_stat(std::string_view name,
                                 const RunningStats& stats) {
  Shard& shard = local_shard();
  oblv::MutexLock lock(shard.mu);
  stat_entry(shard.stats, name).merge(stats);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::map<std::string, std::uint64_t> gauge_seq;
  std::map<std::string, RunningStats> merged_stats;
  // Shared hold: snapshot never grows the shard list, so concurrent
  // snapshots (exporter + introspection endpoint) do not serialize on
  // the registry lock -- only writers (local_shard registration) do.
  oblv::ReaderMutexLock shards_lock(shards_mu_);
  for (const auto& shard : shards_) {
    oblv::MutexLock lock(shard->mu);
    for (const auto& [name, cell] : shard->counters) {
      out.counters[name] += cell->value();
    }
    for (const auto& [name, cell] : shard->gauges) {
      const std::uint64_t seq = cell->sequence();
      if (seq == 0) continue;  // never set (or reset) in this shard
      auto it = gauge_seq.find(name);
      if (it == gauge_seq.end() || seq > it->second) {
        gauge_seq[name] = seq;
        out.gauges[name] = cell->value();
      }
    }
    for (const auto& [name, cell] : shard->histograms) {
      HistogramSnapshot& h = out.histograms[name];
      if (h.buckets.empty()) {
        h.buckets.assign(static_cast<std::size_t>(Histogram::kNumBuckets), 0);
      }
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        const std::uint64_t c = cell->bucket_count(i);
        h.buckets[static_cast<std::size_t>(i)] += c;
        h.count += c;
      }
      h.sum += cell->sum();
    }
    for (const auto& [name, stats] : shard->stats) {
      merged_stats[name].merge(stats);
    }
  }
  for (const auto& [name, stats] : merged_stats) {
    out.stats[name] = StatSnapshot::from(stats);
  }
  return out;
}

void MetricsRegistry::reset() {
  // Shared hold on the shard *list*; the cells being zeroed are guarded
  // by each shard's own mu (taken below) or are atomics.
  oblv::ReaderMutexLock shards_lock(shards_mu_);
  for (const auto& shard : shards_) {
    oblv::MutexLock lock(shard->mu);
    for (const auto& entry : shard->counters) entry.second->reset();
    for (const auto& entry : shard->gauges) entry.second->reset();
    for (const auto& entry : shard->histograms) entry.second->reset();
    for (auto& entry : shard->stats) entry.second = RunningStats{};
  }
}

// --- ScopedTimer ------------------------------------------------------------

void ScopedTimer::record() {
  MetricsRegistry::global().record_stat(name_, timer_.elapsed_seconds());
}

}  // namespace oblivious::obs
