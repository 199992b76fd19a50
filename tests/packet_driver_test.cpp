// One packet driver, one draw order: every entry point that routes a
// problem -- evaluate, route_and_measure_parallel, route_batch,
// evaluate_trials, route_and_account, route_batch_with_faults -- draws
// packet i from packet_rng(seed, i) through drive_packets, so for one seed
// they must all report the same paths and numbers, bit for bit, for any
// thread count and engine. Checked for every algorithm on a 2D mesh, a 3D
// mesh, and a torus. The suite name matches the CI TSan job's filter.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/evaluate.hpp"
#include "analysis/sketch/stream_account.hpp"
#include "analysis/trials.hpp"
#include "fault/fault_batch.hpp"
#include "fault/fault_model.hpp"
#include "parallel/packet_driver.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "test_support.hpp"
#include "util/thread_annotations.hpp"

namespace oblivious {
namespace {

constexpr std::uint64_t kSeed = 29;

std::vector<Mesh> meshes() {
  std::vector<Mesh> out;
  out.push_back(Mesh::cube(2, 16));
  out.push_back(Mesh::cube(3, 8));
  out.push_back(Mesh::cube(2, 16, /*torus=*/true));
  return out;
}

// Random pairs with repeats (so SoA pair groups span several lanes) and
// one s == t demand.
RoutingProblem problem_for(const Mesh& mesh) {
  RoutingProblem problem;
  for (const auto& [s, t] : testing::sample_pairs(mesh, 300, 5)) {
    problem.demands.push_back({s, t});
  }
  for (std::size_t i = 0; i < 60; ++i) {
    problem.demands.push_back(problem.demands[i % 4]);
  }
  problem.demands.push_back({3, 3});
  return problem;
}

std::string label(const Router& router, const Mesh& mesh) {
  return router.name() + " on " + mesh.describe();
}

// Every field a measuring pass reports, compared exactly (no tolerance).
void expect_same_metrics(const RouteSetMetrics& a, const RouteSetMetrics& b,
                         const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.packets, b.packets) << context;
  EXPECT_EQ(a.congestion, b.congestion) << context;
  EXPECT_EQ(a.dilation, b.dilation) << context;
  EXPECT_EQ(a.max_distance, b.max_distance) << context;
  EXPECT_EQ(a.max_stretch, b.max_stretch) << context;
  EXPECT_EQ(a.mean_stretch, b.mean_stretch) << context;
  EXPECT_EQ(a.lower_bound, b.lower_bound) << context;
  EXPECT_EQ(a.congestion_ratio, b.congestion_ratio) << context;
  EXPECT_EQ(a.accounting, b.accounting) << context;
  EXPECT_EQ(a.accounting_bytes, b.accounting_bytes) << context;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b,
                       const std::string& context) {
  EXPECT_EQ(a.count(), b.count()) << context;
  EXPECT_EQ(a.mean(), b.mean()) << context;
  EXPECT_EQ(a.stddev(), b.stddev()) << context;
  EXPECT_EQ(a.min(), b.min()) << context;
  EXPECT_EQ(a.max(), b.max()) << context;
}

// evaluate (inline, metered, so on the scalar loop) and
// route_and_measure_parallel (SoA where the router has a kernel) on 1, 2,
// and 8 threads report the same numbers, and both equal measuring
// route_batch's paths.
TEST(PacketDriverDeterminism, EvaluateMatchesParallelAndBatch) {
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (const Mesh& mesh : meshes()) {
    const RoutingProblem problem = problem_for(mesh);
    const double bound = best_lower_bound(mesh, problem);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const std::string context = label(*router, mesh);
      RouteAllOptions options;
      options.seed = kSeed;
      const RouteSetMetrics serial =
          evaluate_with_bound(mesh, *router, problem, bound, options);

      RouteBatchOptions batch;
      batch.seed = kSeed;
      std::vector<SegmentPath> batch_paths;
      route_batch(*router, problem.demands, pool2, batch, batch_paths);
      RouteSetMetrics from_batch =
          measure_segment_paths(mesh, problem, batch_paths, bound);
      from_batch.algorithm = router->name();
      expect_same_metrics(serial, from_batch, context + " vs route_batch");

      for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
        std::vector<SegmentPath> paths;
        const RouteSetMetrics parallel = route_and_measure_parallel(
            mesh, *router, problem, bound, *pool, kSeed, {}, &paths);
        expect_same_metrics(serial, parallel,
                            context + " threads=" +
                                std::to_string(pool->num_threads()));
        EXPECT_EQ(paths, batch_paths) << context;
      }
    }
  }
}

TEST(PacketDriverDeterminism, TrialsPoolMatchesSerial) {
  ThreadPool pool(3);
  for (const Mesh& mesh : meshes()) {
    const RoutingProblem problem = problem_for(mesh);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const std::string context = label(*router, mesh);
      const TrialSummary serial =
          evaluate_trials(mesh, *router, problem, 5, kSeed);
      const TrialSummary parallel =
          evaluate_trials(mesh, *router, problem, 5, kSeed, &pool);
      expect_same_stats(serial.congestion, parallel.congestion, context);
      expect_same_stats(serial.dilation, parallel.dilation, context);
      expect_same_stats(serial.max_stretch, parallel.max_stretch, context);
      EXPECT_EQ(serial.max_expected_edge_load, parallel.max_expected_edge_load)
          << context;
      EXPECT_EQ(serial.lower_bound, parallel.lower_bound) << context;
    }
  }
}

// A trial routes on the store sink (SoA where supported); evaluate with
// the trial's seed runs the metered scalar loop.
TEST(PacketDriverDeterminism, TrialMatchesEvaluateOfItsSeed) {
  for (const Mesh& mesh : meshes()) {
    const RoutingProblem problem = problem_for(mesh);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const std::string context = label(*router, mesh);
      RouteAllOptions options;
      options.seed = kSeed;
      const RouteSetMetrics metered = evaluate(mesh, *router, problem, options);
      const TrialSummary one =
          evaluate_trials(mesh, *router, problem, 1, kSeed);
      EXPECT_EQ(one.congestion.mean(), static_cast<double>(metered.congestion))
          << context;
      EXPECT_EQ(one.dilation.mean(), static_cast<double>(metered.dilation))
          << context;
      EXPECT_EQ(one.max_stretch.mean(), metered.max_stretch) << context;
    }
  }
}

// The streaming sink charges each packet as it is routed; the measuring
// sink charges a stored block after routing it. With exact accounting
// both must produce the same per-edge loads.
TEST(PacketDriverDeterminism, StreamExactLoadsMatchRouteAndMeasure) {
  ThreadPool pool(4);
  for (const Mesh& mesh : meshes()) {
    const RoutingProblem problem = problem_for(mesh);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const std::string context = label(*router, mesh);
      std::vector<SegmentPath> paths;
      const RouteSetMetrics measured = route_and_measure_parallel(
          mesh, *router, problem, 1.0, pool, kSeed, {}, &paths);
      const auto from_paths =
          LoadAccountant::create(mesh, AccountingMode::kExact);
      from_paths->add_segment_paths(paths);

      const auto streamed =
          LoadAccountant::create(mesh, AccountingMode::kExact);
      StreamAccountOptions options;
      options.seed = kSeed;
      options.block_size = 64;
      route_and_account(*router, DemandSource::from_span(problem.demands),
                        pool, options, *streamed);
      EXPECT_EQ(static_cast<std::int64_t>(streamed->max_load()),
                measured.congestion)
          << context;
      EXPECT_EQ(streamed->total_edge_charges(),
                from_paths->total_edge_charges())
          << context;
      for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
        ASSERT_EQ(streamed->estimate_load(e), from_paths->estimate_load(e))
            << context << " edge " << e;
      }
    }
  }
}

// Every sink gives the same result on the SoA engine as on the scalar
// loop: the store sink under kAuto vs kScalar, the measuring sink's
// sketch fold (a grouped run's block round) vs the streaming sink's
// (scalar, same fixed blocks and fold order), and the fault sink
// (scalar) under a fault-free model vs the SoA store sink.
TEST(PacketDriverDeterminism, EverySinkSoaMatchesScalar) {
  ThreadPool pool(3);
  for (const Mesh& mesh : meshes()) {
    const RoutingProblem problem = problem_for(mesh);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const std::string context = label(*router, mesh);
      RouteBatchOptions soa;
      soa.seed = kSeed;
      soa.chunk_size = 37;
      RouteBatchOptions scalar = soa;
      scalar.engine = BatchEngine::kScalar;
      std::vector<SegmentPath> soa_paths;
      std::vector<SegmentPath> scalar_paths;
      route_batch(*router, problem.demands, pool, soa, soa_paths);
      route_batch(*router, problem.demands, pool, scalar, scalar_paths);
      EXPECT_EQ(soa_paths, scalar_paths) << context;

      AccountingOptions sketch;
      sketch.mode = AccountingMode::kSketch;
      sketch.sketch.sketch_bytes = std::size_t{1} << 14;
      sketch.sketch.block_size = 50;
      const RouteSetMetrics measured = route_and_measure_parallel(
          mesh, *router, problem, 1.0, pool, kSeed, sketch);
      const auto streamed = LoadAccountant::create(
          mesh, AccountingMode::kSketch, sketch.sketch);
      StreamAccountOptions stream;
      stream.seed = kSeed;
      route_and_account(*router, DemandSource::from_span(problem.demands),
                        pool, stream, *streamed);
      EXPECT_EQ(measured.congestion,
                static_cast<std::int64_t>(streamed->max_load()))
          << context;

      const FaultModel no_faults(mesh, FaultConfig{});
      ASSERT_TRUE(no_faults.fault_free());
      const FaultAwareRouter fault_router(*router, no_faults);
      std::vector<SegmentPath> fault_paths;
      const FaultBatchStats stats = route_batch_with_faults(
          fault_router, problem.demands, pool, soa, fault_paths);
      EXPECT_EQ(stats.clean, static_cast<std::int64_t>(problem.size()))
          << context;
      EXPECT_EQ(fault_paths, soa_paths) << context;
    }
  }
}

// A skewed batch: one hot pair carrying ~40% of the packets, a 7-packet
// group, 200 singletons, and a few s == t demands, shuffled so every
// group's packets are spread over the index range.
RoutingProblem skewed_problem(const Mesh& mesh) {
  const auto pairs = testing::sample_pairs(mesh, 202, 13);
  RoutingProblem problem;
  for (std::size_t i = 0; i < 200; ++i) {
    problem.demands.push_back({pairs[i].first, pairs[i].second});
  }
  for (std::size_t i = 0; i < 7; ++i) {
    problem.demands.push_back({pairs[200].first, pairs[200].second});
  }
  for (const NodeId v : {NodeId{0}, NodeId{5}, NodeId{5}}) {
    problem.demands.push_back({v, v});
  }
  for (std::size_t i = 0; i < 140; ++i) {
    problem.demands.push_back({pairs[201].first, pairs[201].second});
  }
  Rng rng(17);
  for (std::size_t i = problem.demands.size(); i > 1; --i) {
    std::swap(problem.demands[i - 1], problem.demands[rng.uniform_below(i)]);
  }
  return problem;
}

// Claims cut the hot pair (and the 7-packet group) into pieces at every
// chunk size, and kAuto keeps e-cube and random-dim-order on the block
// loop while kSoa groups them too: every engine, thread count, and chunk
// size must still store the same paths. The sketch fold over fixed
// 50-packet blocks (a grouped run's block round) must not depend on the
// thread count either, and must equal the streaming sink's per-packet
// fold.
TEST(PacketDriverDeterminism, SkewedBatchSameForEveryEngineAndChunk) {
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (const Mesh& mesh : meshes()) {
    const RoutingProblem problem = skewed_problem(mesh);
    const std::size_t n = problem.size();
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      const std::string context = label(*router, mesh);
      RouteBatchOptions reference_options;
      reference_options.seed = kSeed;
      reference_options.engine = BatchEngine::kScalar;
      std::vector<SegmentPath> reference;
      route_batch(*router, problem.demands, pool1, reference_options, reference);
      std::vector<SegmentPath> paths;
      for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
        for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                        std::size_t{7}, std::size_t{37}, n}) {
          for (const BatchEngine engine :
               {BatchEngine::kAuto, BatchEngine::kSoa, BatchEngine::kScalar}) {
            RouteBatchOptions options;
            options.seed = kSeed;
            options.chunk_size = chunk;
            options.engine = engine;
            route_batch(*router, problem.demands, *pool, options, paths);
            EXPECT_EQ(paths, reference)
                << context << " threads=" << pool->num_threads()
                << " chunk=" << chunk
                << " engine=" << static_cast<int>(engine);
          }
        }
      }

      AccountingOptions sketch;
      sketch.mode = AccountingMode::kSketch;
      sketch.sketch.sketch_bytes = std::size_t{1} << 14;
      sketch.sketch.block_size = 50;
      const auto streamed = LoadAccountant::create(
          mesh, AccountingMode::kSketch, sketch.sketch);
      StreamAccountOptions stream;
      stream.seed = kSeed;
      route_and_account(*router, DemandSource::from_span(problem.demands),
                        pool2, stream, *streamed);
      for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
        const RouteSetMetrics measured = route_and_measure_parallel(
            mesh, *router, problem, 1.0, *pool, kSeed, sketch);
        EXPECT_EQ(measured.congestion,
                  static_cast<std::int64_t>(streamed->max_load()))
            << context << " threads=" << pool->num_threads();
      }
    }
  }
}

// A sink that records which packets and blocks the driver hands it.
struct RecordingSink {
  std::span<const Demand> demands;
  const Router& router;
  std::vector<int> visits;
  std::vector<std::size_t> block_begin;
  std::size_t workers_closed = 0;
  oblv::Mutex mutex;

  struct Worker final : PacketWorker {
    explicit Worker(RecordingSink& s) : sink(s) {}
    std::int64_t route(std::size_t i, Rng& rng,
                       RouteScratch& scratch) override {
      const Demand& d = sink.demands[i];
      route_to(sink.router, d.src, d.dst, rng, scratch, path);
      ++sink.visits[i];  // each index belongs to exactly one worker
      return sampled_hops(i, path);
    }
    void block_done(std::size_t block, std::size_t begin,
                    std::size_t /*end*/) override {
      sink.block_begin[block] = begin;
    }
    void close() override {
      oblv::MutexLock lock(sink.mutex);
      ++sink.workers_closed;
    }
    RecordingSink& sink;
    SegmentPath path;
  };
};

TEST(PacketDriverDeterminism, DriverVisitsEveryPacketOnceInFixedBlocks) {
  const Mesh mesh = Mesh::cube(2, 16);
  const RoutingProblem problem = problem_for(mesh);
  const auto router = make_router(Algorithm::kStaircase, mesh);
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    RecordingSink sink{problem.demands, *router, {}, {}, 0, {}};
    sink.visits.assign(problem.size(), 0);
    const std::size_t block = 17;
    sink.block_begin.assign((problem.size() + block - 1) / block,
                            problem.size());
    PacketRun run;
    run.count = problem.size();
    run.demands = problem.demands;
    run.options.chunk_size = block;
    drive_packets(*router, &pool, run, sink);
    for (std::size_t i = 0; i < problem.size(); ++i) {
      EXPECT_EQ(sink.visits[i], 1) << "packet " << i;
    }
    for (std::size_t b = 0; b < sink.block_begin.size(); ++b) {
      EXPECT_EQ(sink.block_begin[b], b * block) << "block " << b;
    }
    EXPECT_EQ(sink.workers_closed,
              std::max<std::size_t>(1, pool.num_threads()));
  }
}

}  // namespace
}  // namespace oblivious
