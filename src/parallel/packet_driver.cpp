#include "parallel/packet_driver.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"
#include "parallel/soa_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace oblivious::detail {

struct DriverState {
  const Router& router;
  const PacketRun& run;
  bool soa;
  std::size_t block;
  // Lock-free by design (DESIGN.md section 13): the cursor is the only
  // shared mutable state of the loop -- every output slot and scratch
  // buffer belongs to exactly one worker per claim. Relaxed suffices:
  // fetch_add's atomicity alone partitions the blocks.
  std::atomic<std::size_t> cursor{0};
};

namespace {

// Workers are pool threads that outlive a call, so the engine's
// capacity-retaining buffers amortize across calls too.
SoaBatchEngine& thread_soa_engine() {
  static thread_local SoaBatchEngine engine;
  return engine;
}

}  // namespace

double drive(const Router& router, ThreadPool* pool, const PacketRun& run,
             const std::function<void(DriverState&)>& per_worker) {
  const WallTimer timer;
  OBLV_REQUIRE(run.demands.empty() || run.demands.size() == run.count,
               "stored demands must cover every packet");
  OBLV_REQUIRE(run.segments.empty() || run.segments.size() == run.count,
               "stored segment paths must cover every packet");
  if (run.options.validate_demands) {
    const Mesh& mesh = router.mesh();
    for (const Demand& demand : run.demands) {
      OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                       demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                   "demand endpoints must be mesh nodes");
    }
  }
  if (run.count == 0) return 0.0;
  const std::size_t workers =
      pool == nullptr ? 1 : std::max<std::size_t>(1, pool->num_threads());
  const bool soa = !run.segments.empty() && !run.demands.empty() &&
                   run.options.engine != BatchEngine::kScalar &&
                   SoaBatchEngine::supports(router);
  const std::size_t block =
      run.options.chunk_size != 0
          ? run.options.chunk_size
          : std::max<std::size_t>(1, run.count / (workers * (soa ? 2 : 8)));
  DriverState state{router, run, soa, block};
  if (workers == 1) {
    per_worker(state);
  } else {
    for (std::size_t w = 0; w < workers; ++w) {
      pool->submit([&per_worker, &state] { per_worker(state); });
    }
    pool->wait_idle();
  }
  const double seconds = timer.elapsed_seconds();
  OBLV_STAT_RECORD("routing.route_seconds", seconds);
  return seconds;
}

void drain(DriverState& state, PacketWorker& worker) {
  const PacketRun& run = state.run;
  const bool obs_on = obs::metrics_enabled();
  IntHistogram path_lengths;
  IntHistogram* const sample = obs_on ? &path_lengths : nullptr;
  RouteScratch scratch;
  std::size_t routed = 0;
  std::size_t blocks = 0;
  for (;;) {
    const std::size_t block =
        state.cursor.fetch_add(1, std::memory_order_relaxed);
    const std::size_t begin = block * state.block;
    if (begin >= run.count) break;
    const std::size_t end = std::min(run.count, begin + state.block);
    if (state.soa) {
      thread_soa_engine().run(state.router, run.demands, run.options.seed,
                              begin, end, run.segments, sample);
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        Rng rng = packet_rng(run.options.seed, i);
        const std::int64_t hops = worker.route(i, rng, scratch);
        if (sample != nullptr && path_length_sampled(i)) {
          sample->add(hops, kPathLengthSampleStride);
        }
      }
    }
    worker.block_done(block, begin, end);
    routed += end - begin;
    ++blocks;
  }
  worker.close();
  // One registry visit per worker, into its own thread-local shard.
  if (obs_on && blocks > 0) {
    OBLV_COUNTER_ADD("routing.batch.chunks", blocks);
    OBLV_HISTOGRAM_ADD("routing.batch.packets_per_worker", routed);
    OBLV_COUNTER_ADD("routing.packets", routed);
    OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
  }
}

}  // namespace oblivious::detail
