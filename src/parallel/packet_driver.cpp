#include "parallel/packet_driver.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "parallel/soa_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace oblivious::detail {

namespace {

// The packets of one call grouped by (s, t) pair: a counting sort through
// an open-addressing table (pair key -> dense group id, in order of first
// appearance) and a prefix-sum scatter that keeps each group's packets in
// index order. Built once per call on the calling thread; the workers
// only read it.
class PairGroups {
 public:
  PairGroups() = default;
  // Workers read a call's groups through a pointer: no copies.
  PairGroups(const PairGroups&) = delete;
  PairGroups& operator=(const PairGroups&) = delete;

  void build(const Mesh& mesh, std::span<const Demand> demands) {
    const std::size_t n = demands.size();
    std::size_t table = 16;
    while (table < 2 * n) table <<= 1;
    slot_key_.assign(table, 0);
    slot_group_.assign(table, -1);
    group_of_.resize(n);
    demand_.clear();
    const std::uint64_t mask = table - 1;
    const auto nodes = static_cast<std::uint64_t>(mesh.num_nodes());
    for (std::size_t i = 0; i < n; ++i) {
      const Demand& dm = demands[i];
      const std::uint64_t key =
          static_cast<std::uint64_t>(dm.src) * nodes +
          static_cast<std::uint64_t>(dm.dst);
      std::uint64_t h = splitmix64(key) & mask;
      while (slot_group_[h] >= 0 && slot_key_[h] != key) h = (h + 1) & mask;
      if (slot_group_[h] < 0) {
        slot_group_[h] = static_cast<std::int32_t>(demand_.size());
        slot_key_[h] = key;
        demand_.push_back(dm);
      }
      group_of_[i] = slot_group_[h];
    }
    // Group g's count lands in start_[g + 2], so after the prefix sum
    // start_[g + 1] is g's start, and the scatter's post-increment leaves
    // start_[g + 1] at g's end -- which is g + 1's start.
    const std::size_t groups = demand_.size();
    start_.assign(groups + 2, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++start_[static_cast<std::size_t>(group_of_[i]) + 2];
    }
    for (std::size_t g = 2; g < groups + 2; ++g) start_[g] += start_[g - 1];
    order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      order_[start_[static_cast<std::size_t>(group_of_[i]) + 1]++] = i;
    }
    start_.pop_back();
  }

  // Packet indices, group-major.
  std::span<const std::uint64_t> order() const { return order_; }
  const Demand& demand(std::size_t g) const { return demand_[g]; }
  // Group g occupies order()[start(g), start(g + 1)).
  std::size_t start(std::size_t g) const { return start_[g]; }
  // The group holding order()[pos].
  std::size_t group_at(std::size_t pos) const {
    return static_cast<std::size_t>(
        std::upper_bound(start_.begin(), start_.end(), pos) -
        start_.begin() - 1);
  }

 private:
  std::vector<std::uint64_t> slot_key_;
  std::vector<std::int32_t> slot_group_;
  std::vector<std::int32_t> group_of_;
  std::vector<Demand> demand_;
  std::vector<std::size_t> start_;
  std::vector<std::uint64_t> order_;
};

// A thread's capacity-retaining routing buffers. Workers are pool threads
// that outlive a call, so these amortize across calls too.
struct WorkerBuffers {
  SoaBatchEngine engine;
  IntHistogram path_lengths;
};

WorkerBuffers& thread_buffers() {
  static thread_local WorkerBuffers buffers;
  return buffers;
}

PairGroups& thread_pair_groups() {
  static thread_local PairGroups groups;
  return groups;
}

// Runs `task` once on each of `workers` pool threads, or inline when
// there is one, and returns when every copy has finished.
template <typename Task>
void run_round(ThreadPool* pool, std::size_t workers, const Task& task) {
  if (workers == 1) {
    task();
    return;
  }
  for (std::size_t w = 0; w < workers; ++w) pool->submit([&task] { task(); });
  pool->wait_idle();
}

}  // namespace

struct DriverState {
  DriverState(const PacketRun& pr, std::size_t claim)
      : run(pr), block(claim) {}

  const PacketRun& run;
  std::size_t block;
  // Grouped runs only: the call's pair groups and kernel.
  const PairGroups* groups = nullptr;
  SoaBatchEngine::Kernel kernel;
  // Lock-free by design (DESIGN.md section 13): the cursor is the only
  // shared mutable state of a round -- every output slot and scratch
  // buffer belongs to exactly one worker per claim. Relaxed suffices:
  // fetch_add's atomicity alone partitions the claims, and a round's
  // submit/wait_idle orders it against the next.
  std::atomic<std::size_t> cursor{0};
};

namespace {

// One worker's share of a grouped run's routing round: claims ranges of
// the group-major order and routes each group piece in it on the kernel,
// straight into run.segments -- all a grouped run's sink does per packet.
void route_groups(DriverState& state) {
  const PacketRun& run = state.run;
  const PairGroups& groups = *state.groups;
  const std::span<const std::uint64_t> order = groups.order();
  const std::uint64_t seed = run.options.seed;
  WorkerBuffers& buf = thread_buffers();
  const bool obs_on = obs::metrics_enabled();
  buf.path_lengths.clear();
  IntHistogram* const sample = obs_on ? &buf.path_lengths : nullptr;
  std::size_t claims = 0;
  std::size_t pieces = 0;
  std::size_t routed = 0;
  for (;;) {
    std::size_t pos =
        state.cursor.fetch_add(1, std::memory_order_relaxed) * state.block;
    if (pos >= run.count) break;
    const std::size_t end = std::min(run.count, pos + state.block);
    for (std::size_t g = groups.group_at(pos); pos < end; ++g) {
      const std::size_t piece_end = std::min(end, groups.start(g + 1));
      const std::span<const std::uint64_t> packets =
          order.subspan(pos, piece_end - pos);
      buf.engine.run(state.kernel, groups.demand(g), packets, seed,
                     run.segments, sample);
      routed += packets.size();
      ++pieces;
      pos = piece_end;
    }
    ++claims;
  }
  // One registry visit per worker, into its own thread-local shard.
  if (obs_on && claims > 0) {
    OBLV_COUNTER_ADD("routing.batch.chunks", claims);
    OBLV_COUNTER_ADD("routing.batch.groups", pieces);
    OBLV_COUNTER_ADD("routing.batch.soa_packets", routed);
    OBLV_HISTOGRAM_ADD("routing.batch.packets_per_worker", routed);
    OBLV_COUNTER_ADD("routing.packets", routed);
    OBLV_HISTOGRAM_MERGE("routing.path_length", buf.path_lengths);
  }
}

}  // namespace

double drive(const Router& router, ThreadPool* pool, const PacketRun& run,
             bool block_work,
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
  const std::size_t block =
      run.options.chunk_size != 0
          ? run.options.chunk_size
          : std::max<std::size_t>(1, run.count / (workers * 8));
  DriverState state(run, block);
  // Grouped only when the sink stores segment paths and nothing else, the
  // demands are stored, and the engine choice allows the router's kernel.
  bool grouped = false;
  if (run.options.engine != BatchEngine::kScalar && !run.segments.empty() &&
      !run.demands.empty()) {
    state.kernel = SoaBatchEngine::kernel_for(router);
    grouped = run.options.engine == BatchEngine::kSoa
                  ? state.kernel.supported()
                  : state.kernel.auto_grouped();
  }
  const auto sink_round = [&per_worker, &state] { per_worker(state); };
  if (!grouped) {
    run_round(pool, workers, sink_round);
  } else {
    PairGroups& groups = thread_pair_groups();
    groups.build(router.mesh(), run.demands);
    state.groups = &groups;
    run_round(pool, workers, [&state] { route_groups(state); });
    if (block_work) {
      state.cursor.store(0, std::memory_order_relaxed);
      run_round(pool, workers, sink_round);
    }
  }
  const double seconds = timer.elapsed_seconds();
  OBLV_STAT_RECORD("routing.route_seconds", seconds);
  return seconds;
}

void drain(DriverState& state, PacketWorker& worker) {
  const PacketRun& run = state.run;
  if (state.groups != nullptr) {
    // The block round of a grouped run: every packet is already routed.
    for (;;) {
      const std::size_t block =
          state.cursor.fetch_add(1, std::memory_order_relaxed);
      const std::size_t begin = block * state.block;
      if (begin >= run.count) break;
      worker.block_done(block, begin, std::min(run.count, begin + state.block));
    }
    worker.close();
    return;
  }
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
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = packet_rng(run.options.seed, i);
      const std::int64_t hops = worker.route(i, rng, scratch);
      if (sample != nullptr && path_length_sampled(i)) {
        sample->add(hops, kPathLengthSampleStride);
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
    OBLV_COUNTER_ADD("routing.batch.scalar_packets", routed);
    OBLV_HISTOGRAM_ADD("routing.batch.packets_per_worker", routed);
    OBLV_COUNTER_ADD("routing.packets", routed);
    OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
  }
}

}  // namespace oblivious::detail
