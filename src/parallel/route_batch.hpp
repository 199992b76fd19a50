// Batch routing: the store-every-path sinks of the packet driver
// (packet_driver.hpp). route_batch stores packet i's path in out[i]; the
// output is bit-identical for any thread count, chunk size, claim order,
// and engine, and equals what every other entry point selects for the
// same seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/packet_driver.hpp"
#include "routing/router.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

class ThreadPool;

// Routes demands[i] into out[i] (resizing `out` to match; entry capacity
// is retained across calls, so reusing the same vector avoids per-batch
// allocation). Deterministic: out depends only on (router, demands, seed).
// \pre every demand's endpoints are node ids of the router's mesh.
void route_batch(const Router& router, std::span<const Demand> demands,
                 ThreadPool& pool, const RouteBatchOptions& options,
                 std::vector<SegmentPath>& out);

// Node-list twin of route_batch (same rng streams; the paths describe the
// same routes as the segment form). Runs on the scalar loop: the SoA
// engine emits segments only.
// \pre every demand's endpoints are node ids of the router's mesh.
void route_batch_paths(const Router& router, std::span<const Demand> demands,
                       ThreadPool& pool, const RouteBatchOptions& options,
                       std::vector<Path>& out);

}  // namespace oblivious
