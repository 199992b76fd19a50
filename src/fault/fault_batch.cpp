#include "fault/fault_batch.hpp"

#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace oblivious {

namespace {

// Stores packet i's path and recovery status and tallies the outcome.
// Retry/backoff makes the draw count data-dependent, so this sink keeps
// no SoA output: fault batches always run on the scalar loop.
struct FaultSink {
  const FaultAwareRouter& router;
  std::span<const Demand> demands;
  std::vector<SegmentPath>& out;
  std::vector<FaultRouteStatus>* statuses;
  FaultBatchStats& stats;
  // Function-local merge lock: the analysis cannot attach GUARDED_BY to
  // a reference, but the annotated type keeps the D008 discipline (no
  // naked std sync primitives) uniform across the tree.
  oblv::Mutex merge_mutex;

  struct Worker final : PacketWorker {
    explicit Worker(FaultSink& s) : sink(s) {}

    std::int64_t route(std::size_t i, Rng& rng,
                       RouteScratch& scratch) override {
      const Demand& d = sink.demands[i];
      const FaultRouteOutcome outcome =
          sink.router.route_segments_with_faults(d.src, d.dst, rng, scratch,
                                                 sink.out[i]);
      if (sink.statuses != nullptr) (*sink.statuses)[i] = outcome.status;
      local.attempts += outcome.attempts;
      local.backoff_steps += outcome.backoff_steps;
      switch (outcome.status) {
        case FaultRouteStatus::kClean:
          ++local.clean;
          break;
        case FaultRouteStatus::kRetried:
          ++local.retried;
          break;
        case FaultRouteStatus::kDetoured:
          ++local.detoured;
          break;
        case FaultRouteStatus::kDropped:
          // oblv-lint: allow(D005) tally of a drop the router already
          // counted into fault.drops at the decision site
          ++local.dropped;
          break;
      }
      return sampled_hops(i, sink.out[i]);
    }

    // Integer sums merge associatively: the lock only serializes the
    // merge, it cannot change the totals.
    void close() override {
      oblv::MutexLock lock(sink.merge_mutex);
      sink.stats.clean += local.clean;
      sink.stats.retried += local.retried;
      sink.stats.detoured += local.detoured;
      sink.stats.dropped += local.dropped;
      sink.stats.attempts += local.attempts;
      sink.stats.backoff_steps += local.backoff_steps;
    }

    FaultSink& sink;
    FaultBatchStats local;
  };
};

}  // namespace

FaultBatchStats route_batch_with_faults(
    const FaultAwareRouter& router, std::span<const Demand> demands,
    ThreadPool& pool, const RouteBatchOptions& options,
    std::vector<SegmentPath>& out, std::vector<FaultRouteStatus>* statuses) {
  out.resize(demands.size());
  if (statuses != nullptr) statuses->resize(demands.size());
  FaultBatchStats stats;
  stats.demands = static_cast<std::int64_t>(demands.size());
  PacketRun run;
  run.count = demands.size();
  run.demands = demands;
  run.options = options;
  FaultSink sink{router, demands, out, statuses, stats, {}};
  drive_packets(router, &pool, run, sink);
  stats.delivered = stats.clean + stats.retried + stats.detoured;
  OBLV_CHECK(stats.delivered + stats.dropped == stats.demands,
             "fault batch accounting: delivered + dropped must equal the "
             "demand count");
  return stats;
}

}  // namespace oblivious
