// Lightweight observability layer: counters, gauges, scoped timers and
// log-bucketed histograms registered in a process-wide MetricsRegistry.
//
// Design goals, in order:
//  1. The instrumented hot paths (route + account, millions of packets per
//     second) must stay contention-free: every metric cell lives in a
//     *thread-local shard*, so an increment is one relaxed atomic add on a
//     cacheline no other thread writes -- the same sharding idiom as the
//     parallel route path's per-chunk EdgeLoadMap accumulators. Shards are
//     merged by name only when a snapshot is taken.
//  2. Instrumentation must be cheap to disable. `metrics_enabled()` is a
//     single relaxed atomic load (branch predicted away in loops), and when
//     the library is configured with -DOBLV_METRICS=OFF it becomes
//     `constexpr false`, so every gated block is dead-stripped -- truly
//     compiled out. bench_p5_obs_overhead measures both gaps.
//  3. Handles are stable: counter()/gauge()/histogram() return references
//     that survive reset() and snapshot(), so call sites cache them in
//     static thread_local pointers (see the OBLV_* macros below) and pay
//     the name lookup once per thread.
//
// Snapshot values are merged across shards: counters sum, histograms sum
// per bucket, timer stats merge via RunningStats::merge, and gauges keep
// the most recently set value (a global sequence number breaks ties
// between shards).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace oblivious::obs {

#if defined(OBLV_METRICS_ENABLED) && OBLV_METRICS_ENABLED
// Runtime kill switch (default on). Flipping it off reduces every gated
// instrumentation block to one predicted branch.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);
#else
constexpr bool metrics_enabled() { return false; }
inline void set_metrics_enabled(bool) {}
#endif

// Monotonic event count. add() is a relaxed atomic on a thread-local cell.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value (e.g. "max edge load of the most recent run"). The
// global sequence number lets a snapshot pick the newest write across
// shards.
class Gauge {
 public:
  void set(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  std::uint64_t sequence() const { return seq_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> seq_{0};
};

// Log-bucketed histogram over positive doubles: 4 sub-buckets per octave
// (power of two), covering ~1e-6 .. 8e12. Values outside clamp to the end
// buckets. 256 buckets of relaxed atomics per shard.
class Histogram {
 public:
  static constexpr int kMinExp = -20;   // smallest octave: [2^-21, 2^-20)
  static constexpr int kNumOctaves = 64;
  static constexpr int kSubBuckets = 4;
  static constexpr int kNumBuckets = kNumOctaves * kSubBuckets;

  // Index of the bucket containing v (v <= 0 maps to bucket 0).
  static int bucket_index(double v);
  // Exclusive upper bound of a bucket.
  static double bucket_upper_bound(int index);

  void add(double v, std::uint64_t weight = 1);
  // Bulk-merges a hot-loop-local IntHistogram (value i with its count).
  void merge_int_histogram(const IntHistogram& h);

  std::uint64_t bucket_count(int index) const {
    return buckets_[static_cast<std::size_t>(index)].load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<double> sum_{0.0};
};

// --- Snapshot types ---------------------------------------------------------

struct StatSnapshot {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double total = 0.0;  // mean * count

  static StatSnapshot from(const RunningStats& s);
};

struct HistogramSnapshot {
  // Dense bucket counts, size Histogram::kNumBuckets.
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const;
  // Upper bound of the bucket where the cumulative mass crosses q.
  // \pre q is in [0, 1].
  double quantile(double q) const;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, StatSnapshot> stats;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && stats.empty() &&
           histograms.empty();
  }
};

// --- Registry ---------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Invalidates the per-thread shard caches (a later registry could be
  // allocated at this address, and the caches key on it).
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every macro and instrumentation site uses.
  static MetricsRegistry& global();

  // Return this thread's cell for `name`, creating shard and cell on first
  // use. References stay valid for the registry's lifetime (reset() zeroes
  // cells in place).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Timer-stat ingestion (RunningStats per name, merged across shards).
  // A name already present in the thread's shard is found without
  // building a std::string, so a warm record allocates nothing.
  void record_stat(std::string_view name, double value);
  void merge_stat(std::string_view name, const RunningStats& stats);

  // Merges every shard by name into one consistent view.
  MetricsSnapshot snapshot() const OBLV_EXCLUDES(shards_mu_);
  // Zeroes every cell in every shard; handles remain valid.
  void reset() OBLV_EXCLUDES(shards_mu_);

 private:
  struct Shard {
    mutable oblv::Mutex mu;  // guards the maps and `stats`
    std::map<std::string, std::unique_ptr<Counter>> counters
        OBLV_GUARDED_BY(mu);
    std::map<std::string, std::unique_ptr<Gauge>> gauges OBLV_GUARDED_BY(mu);
    std::map<std::string, std::unique_ptr<Histogram>> histograms
        OBLV_GUARDED_BY(mu);
    std::map<std::string, RunningStats, std::less<>> stats
        OBLV_GUARDED_BY(mu);
  };

  Shard& local_shard() OBLV_EXCLUDES(shards_mu_);

  // Lock order: shards_mu_ before any Shard::mu (snapshot/reset walk the
  // shard list shared, then lock each shard in turn). The reverse never
  // happens: a hot-path cell lookup locks only its own shard. See
  // DESIGN.md section 13 for why the order cannot be expressed as an
  // OBLV_ACQUIRED_BEFORE attribute here (Shard::mu cannot name the
  // enclosing registry's member).
  mutable oblv::SharedMutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_ OBLV_GUARDED_BY(shards_mu_);
};

// Wall-clock timer that records its lifetime (seconds) as a timer stat in
// the global registry. `stop()` records early and returns the elapsed
// seconds; the destructor records unless stop() already did.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : name_(name), active_(metrics_enabled()) {}
  ~ScopedTimer() {
    if (active_) record();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double stop() {
    const double s = timer_.elapsed_seconds();
    if (active_) {
      record();
      active_ = false;
    }
    return s;
  }

 private:
  void record();

  const char* name_;
  bool active_;
  WallTimer timer_;
};

}  // namespace oblivious::obs

// --- Instrumentation macros -------------------------------------------------
//
// Each macro caches the metric handle in a static thread_local pointer, so
// the steady-state cost is one predicted branch plus one relaxed atomic op.
// With OBLV_METRICS=OFF, metrics_enabled() is constexpr false and the whole
// block is dead-stripped.

#define OBLV_OBS_CONCAT_INNER(a, b) a##b
#define OBLV_OBS_CONCAT(a, b) OBLV_OBS_CONCAT_INNER(a, b)

#define OBLV_COUNTER_ADD(name, n)                                         \
  do {                                                                    \
    if (::oblivious::obs::metrics_enabled()) {                            \
      static thread_local ::oblivious::obs::Counter* oblv_obs_cell =      \
          &::oblivious::obs::MetricsRegistry::global().counter(name);     \
      oblv_obs_cell->add(static_cast<std::uint64_t>(n));                  \
    }                                                                     \
  } while (0)

#define OBLV_GAUGE_SET(name, v)                                           \
  do {                                                                    \
    if (::oblivious::obs::metrics_enabled()) {                            \
      static thread_local ::oblivious::obs::Gauge* oblv_obs_cell =        \
          &::oblivious::obs::MetricsRegistry::global().gauge(name);       \
      oblv_obs_cell->set(static_cast<double>(v));                         \
    }                                                                     \
  } while (0)

#define OBLV_HISTOGRAM_ADD(name, v)                                      \
  do {                                                                   \
    if (::oblivious::obs::metrics_enabled()) {                           \
      static thread_local ::oblivious::obs::Histogram* oblv_obs_cell =   \
          &::oblivious::obs::MetricsRegistry::global().histogram(name);  \
      oblv_obs_cell->add(static_cast<double>(v));                        \
    }                                                                    \
  } while (0)

// Folds a loop-local IntHistogram into a shared histogram in one call.
#define OBLV_HISTOGRAM_MERGE(name, int_histogram)                        \
  do {                                                                   \
    if (::oblivious::obs::metrics_enabled()) {                           \
      static thread_local ::oblivious::obs::Histogram* oblv_obs_cell =   \
          &::oblivious::obs::MetricsRegistry::global().histogram(name);  \
      oblv_obs_cell->merge_int_histogram(int_histogram);                 \
    }                                                                    \
  } while (0)

#define OBLV_STAT_RECORD(name, value)                                       \
  do {                                                                      \
    if (::oblivious::obs::metrics_enabled()) {                              \
      ::oblivious::obs::MetricsRegistry::global().record_stat(name, value); \
    }                                                                       \
  } while (0)

#define OBLV_STAT_MERGE(name, running_stats)                               \
  do {                                                                     \
    if (::oblivious::obs::metrics_enabled()) {                             \
      ::oblivious::obs::MetricsRegistry::global().merge_stat(              \
          name, running_stats);                                            \
    }                                                                      \
  } while (0)

// Times the enclosing scope and records it as a timer stat. Expands to
// nothing when metrics are compiled out (skips even the clock read).
#if defined(OBLV_METRICS_ENABLED) && OBLV_METRICS_ENABLED
#define OBLV_SCOPED_TIMER(name) \
  ::oblivious::obs::ScopedTimer OBLV_OBS_CONCAT(oblv_obs_timer_, __LINE__)(name)
#else
#define OBLV_SCOPED_TIMER(name) ((void)0)
#endif
