// Proves the zero-allocation claim of the scratch-threaded routing path:
// after a warm-up pass (which populates the plan cache and grows every
// reusable buffer to its steady-state capacity), repeated route_into /
// route_segments_into calls on the hierarchical routers perform ZERO heap
// allocations. The test binary overrides the global allocation functions
// with wrappers that count calls and requested bytes; the
// contract-checked build is skipped because the OBLV_EXPECTS validators
// allocate by design.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "mesh/mesh.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/soa_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "routing/hierarchical.hpp"
#include "routing/registry.hpp"
#include "routing/route_scratch.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"
#include "workloads/problem.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void count(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace oblivious {
namespace {

// Routes every pair in `pairs` once (segment form) and returns the number
// of heap allocations the pass performed.
template <typename RouterT>
std::uint64_t count_pass(const RouterT& router,
                         const std::vector<std::pair<NodeId, NodeId>>& pairs,
                         RouteScratch& scratch, SegmentPath& out) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (const auto& [s, t] : pairs) {
    Rng rng(99);
    router.route_segments_into(s, t, rng, scratch, out);
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

template <typename RouterT>
void expect_zero_steady_state(const RouterT& router, const Mesh& mesh) {
  const auto pairs = testing::sample_pairs(mesh, 64, 17);
  RouteScratch scratch;
  SegmentPath out;
  // Two warm-up passes: the first misses the plan cache and grows buffers,
  // the second settles any capacity that depends on warm-path sizes.
  count_pass(router, pairs, scratch, out);
  count_pass(router, pairs, scratch, out);
  EXPECT_EQ(count_pass(router, pairs, scratch, out), 0u) << router.name();
  EXPECT_EQ(count_pass(router, pairs, scratch, out), 0u) << router.name();
}

TEST(AllocCount, HierarchicalRoutersAllocateNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const Mesh mesh2 = Mesh::cube(2, 16);
  expect_zero_steady_state(
      AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessGraph), mesh2);
  expect_zero_steady_state(
      AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessTree), mesh2);
  expect_zero_steady_state(NdRouter(mesh2), mesh2);
  expect_zero_steady_state(NdRouter(mesh2, NdRouter::RandomnessMode::kFrugal),
                           mesh2);
  const Mesh mesh3 = Mesh::cube(3, 8, /*torus=*/true);
  expect_zero_steady_state(NdRouter(mesh3), mesh3);
#endif
}

TEST(AllocCount, BaselineRoutersAllocateNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const Mesh mesh = Mesh::cube(2, 16);
  for (const Algorithm algo :
       {Algorithm::kEcube, Algorithm::kRandomDimOrder, Algorithm::kStaircase,
        Algorithm::kValiant, Algorithm::kBoundedValiant}) {
    const auto router = make_router(algo, mesh);
    expect_zero_steady_state(*router, mesh);
  }
#endif
}

// The SoA batch engine's buffers are all capacity-retaining members, so
// after a warm-up batch (plan cache populated, plan columns and draw rows
// grown, output SmallVecs spilled to their final capacity) repeated
// batches perform ZERO heap allocations -- the claim soa_batch.hpp makes.
TEST(AllocCount, SoaBatchEngineAllocatesNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const auto run_engine = [](const Router& router, const Mesh& mesh) {
    const auto pairs = testing::sample_pairs(mesh, 48, 29);
    std::vector<Demand> demands;
    for (const auto& [s, t] : pairs) demands.push_back({s, t});
    for (std::size_t i = 0; i < 32; ++i) {  // repeats: multi-block groups
      demands.push_back({pairs[i % 4].first, pairs[i % 4].second});
    }
    SoaBatchEngine engine;
    const SoaBatchEngine::Kernel kernel = SoaBatchEngine::kernel_for(router);
    const auto groups = testing::group_by_pair(demands, 0, demands.size());
    std::vector<SegmentPath> out(demands.size());
    const auto pass = [&]() {
      const std::uint64_t before =
          g_alloc_count.load(std::memory_order_relaxed);
      for (const auto& group : groups) {
        engine.run(kernel, group.pair, group.packets, /*seed=*/9,
                   std::span<SegmentPath>(out), nullptr);
      }
      return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    pass();
    pass();
    EXPECT_EQ(pass(), 0u) << router.name();
    EXPECT_EQ(pass(), 0u) << router.name();
  };
  const Mesh mesh2 = Mesh::cube(2, 16);
  run_engine(AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessGraph),
             mesh2);
  run_engine(NdRouter(mesh2, NdRouter::RandomnessMode::kFrugal), mesh2);
  const Mesh mesh3 = Mesh::cube(3, 8, /*torus=*/true);
  run_engine(NdRouter(mesh3), mesh3);
  for (const Algorithm algo : {Algorithm::kEcube, Algorithm::kRandomDimOrder,
                               Algorithm::kValiant,
                               Algorithm::kBoundedValiant}) {
    const auto router = make_router(algo, mesh2);
    run_engine(*router, mesh2);
  }
#endif
}

// The packet driver groups a call's packets into capacity-retaining
// thread-local buffers (pair table, group-major order, per-worker engine,
// and path-length sample), so a warm route_batch under kAuto on a
// one-thread pool -- routed inline on the calling thread -- performs ZERO
// heap allocations, on the hierarchical kernels and on Valiant's.
TEST(AllocCount, RouteBatchAllocatesNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const auto run_batch = [](const Router& router, const Mesh& mesh) {
    const auto pairs = testing::sample_pairs(mesh, 48, 31);
    std::vector<Demand> demands;
    for (const auto& [s, t] : pairs) demands.push_back({s, t});
    for (std::size_t i = 0; i < 40; ++i) {  // groups of 1 to 11 packets
      demands.push_back({pairs[i % 4].first, pairs[i % 4].second});
    }
    demands.push_back({pairs[0].first, pairs[0].first});  // s == t
    ThreadPool pool(1);
    RouteBatchOptions options;
    options.seed = 9;
    std::vector<SegmentPath> out;
    const auto pass = [&]() {
      const std::uint64_t before =
          g_alloc_count.load(std::memory_order_relaxed);
      route_batch(router, demands, pool, options, out);
      return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    pass();
    pass();
    EXPECT_EQ(pass(), 0u) << router.name();
    EXPECT_EQ(pass(), 0u) << router.name();
  };
  const Mesh mesh2 = Mesh::cube(2, 16);
  run_batch(AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessGraph),
            mesh2);
  const Mesh mesh3 = Mesh::cube(3, 8, /*torus=*/true);
  run_batch(NdRouter(mesh3, NdRouter::RandomnessMode::kFrugal), mesh3);
  run_batch(*make_router(Algorithm::kValiant, mesh2), mesh2);
#endif
}

// The sketch accountant's state is sized at construction: the count-min
// table, the heavy-line tracker's heap and hash index, and the fixed
// prefetch queue of count-min updates. So once a warm-up pass has run,
// clear() + add_segment_paths() of the same 3D paths -- thousands of
// heavy-line evictions -- performs ZERO heap allocations.
TEST(AllocCount, SketchAccountantAllocatesNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const Mesh mesh = Mesh::cube(3, 16);
  const NdRouter router(mesh);
  std::vector<Demand> demands;
  for (const auto& [s, t] : testing::sample_pairs(mesh, 512, 37)) {
    demands.push_back({s, t});
  }
  ThreadPool pool(1);
  RouteBatchOptions options;
  options.seed = 5;
  std::vector<SegmentPath> paths;
  route_batch(router, demands, pool, options, paths);

  SketchConfig config;
  config.sketch_bytes = std::size_t{64} << 10;
  config.top_lines = 16;
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  const auto pass = [&]() {
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    sketch->clear();
    sketch->add_segment_paths(paths);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  pass();
  EXPECT_EQ(pass(), 0u);
  EXPECT_EQ(pass(), 0u);
  EXPECT_GT(sketch->total_edge_charges(), 0u);
#endif
}

// Exact mode's memory_bytes() covers everything it allocates: the
// per-edge loads and the per-node difference arrays that the first
// add_segments allocates. A fresh accountant charging a batch allocates
// no more than it reports plus a fixed slack for the object itself, and
// once warm, clear() + add_segment_paths() + max_load() allocates nothing.
TEST(AllocCount, ExactAccountantAllocatesWhatItReports) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const Mesh mesh = Mesh::cube(2, 256);
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  std::vector<Demand> demands;
  for (const auto& [s, t] : testing::sample_pairs(mesh, 2048, 41)) {
    demands.push_back({s, t});
  }
  ThreadPool pool(1);
  RouteBatchOptions options;
  options.seed = 7;
  std::vector<SegmentPath> paths;
  route_batch(*router, demands, pool, options, paths);

  constexpr std::uint64_t kSlack = 4096;
  const std::uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  auto exact = LoadAccountant::create(mesh, AccountingMode::kExact);
  exact->add_segment_paths(paths);
  const std::uint64_t congestion = exact->max_load();
  const std::uint64_t allocated =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(exact->memory_bytes(), LoadAccountant::exact_bytes(mesh));
  EXPECT_LE(allocated, exact->memory_bytes() + kSlack);
  EXPECT_GT(congestion, 0u);

  const auto pass = [&]() {
    const std::uint64_t calls = g_alloc_count.load(std::memory_order_relaxed);
    exact->clear();
    exact->add_segment_paths(paths);
    EXPECT_EQ(exact->max_load(), congestion);
    return g_alloc_count.load(std::memory_order_relaxed) - calls;
  };
  EXPECT_EQ(pass(), 0u);
  EXPECT_EQ(pass(), 0u);
#endif
}

// The tracker must fit the reservation choose_width makes for it: at the
// smallest budget the accountant accepts for a given top_lines, heavy
// churn leaves memory_bytes() inside sketch_bytes. The 64^3 mesh has
// 12,288 lines, so even 4096 tracked lines churn.
TEST(AllocCount, SketchAccountantStaysInsideMinimalBudget) {
  const Mesh mesh = Mesh::cube(3, 64);
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  std::vector<Demand> demands;
  for (const auto& [s, t] : testing::sample_pairs(mesh, 20000, 43)) {
    demands.push_back({s, t});
  }
  ThreadPool pool(1);
  RouteBatchOptions options;
  options.seed = 3;
  std::vector<SegmentPath> paths;
  route_batch(*router, demands, pool, options, paths);

  for (const std::size_t top_lines :
       {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
    SCOPED_TRACE("top_lines " + std::to_string(top_lines));
    SketchConfig config;
    config.top_lines = top_lines;
    // The smallest budget choose_width accepts: the tracker reservation
    // plus 16 count-min columns.
    const std::size_t cells = 16 * static_cast<std::size_t>(config.depth);
    config.sketch_bytes = top_lines * 192 + 1024 + cells * sizeof(std::uint64_t);
    auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
    sketch->add_segment_paths(paths);
    EXPECT_LE(sketch->memory_bytes(), config.sketch_bytes);
    config.sketch_bytes -= 1;
    EXPECT_THROW(LoadAccountant::create(mesh, AccountingMode::kSketch, config),
                 std::invalid_argument);
  }
}

// Sanity-check the harness itself: an allocation must be observed.
TEST(AllocCount, HarnessCountsAllocations) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  std::vector<int>* v = new std::vector<int>(100);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  delete v;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace oblivious
