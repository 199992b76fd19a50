// End-to-end path-quality evaluation: route a whole problem with one
// algorithm and measure congestion C, dilation D, stretch, the congestion
// lower bound, and per-packet random-bit consumption.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lower_bound.hpp"
#include "analysis/sketch/load_accountant.hpp"
#include "mesh/mesh.hpp"
#include "mesh/segment_path.hpp"
#include "routing/router.hpp"
#include "util/stats.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

struct RouteSetMetrics {
  std::string algorithm;
  std::size_t packets = 0;
  std::int64_t congestion = 0;        // C
  std::int64_t dilation = 0;          // D = max path length
  std::int64_t max_distance = 0;      // D* = max shortest distance
  double max_stretch = 0.0;
  double mean_stretch = 0.0;
  double lower_bound = 0.0;           // C* lower bound (boundary/average)
  double congestion_ratio = 0.0;      // C / max(lower_bound, 1)
  RunningStats bits_per_packet;       // random bits drawn per packet
  // Wall time of the routing pass: the driver call's one
  // routing.route_seconds sample (routing plus per-packet accounting and
  // metering). Left 0 by measure_segment_paths, which routes nothing.
  double routing_seconds = 0.0;
  // How the congestion was measured, the accountant's memory, and (sketch
  // mode) its additive overestimation ceiling.
  AccountingMode accounting = AccountingMode::kExact;
  std::size_t accounting_bytes = 0;
  double accounting_error_bound = 0.0;
};

// Options of evaluate / evaluate_with_bound.
struct RouteAllOptions {
  std::uint64_t seed = 1;
  // Remove cycles from the selected paths (the paper notes this never
  // increases congestion).
  bool erase_cycles = false;
  // Collect per-packet random-bit statistics (small overhead). A metered
  // run stays on the scalar loop, where the meter sees every draw; it
  // selects the same paths either way.
  bool meter_bits = true;
};

class ThreadPool;

// Metrics for an existing segment path set: congestion via the O(segments)
// difference-array accounting, stretch/dilation from run lengths.
// \pre paths.size() == problem.size(), one (valid) segment path per demand.
RouteSetMetrics measure_segment_paths(const Mesh& mesh,
                                      const RoutingProblem& problem,
                                      const std::vector<SegmentPath>& paths,
                                      double lower_bound);

// Route + account in one parallel pass through a LoadAccountant of the
// requested mode. Workers claim fixed-size accounting blocks (see
// SketchConfig::block_size), charge a block's packets in index order once
// it is routed, and hand finished blocks to fold_block, so every reported
// number -- exact or sketch -- is identical for any thread count, block
// completion order, and engine. Packet i draws from packet_rng(seed, i),
// like every other entry point: the paths are those route_batch selects
// for the same seed. When `paths_out` is non-null they are stored there.
RouteSetMetrics route_and_measure_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    double lower_bound, ThreadPool& pool, std::uint64_t seed,
    const AccountingOptions& accounting = {},
    std::vector<SegmentPath>* paths_out = nullptr);

// Route + measure in one call, inline on the calling thread: the same
// measuring pass as route_and_measure_parallel with exact accounting, so
// for one seed both report the same paths and numbers. The congestion
// lower bound uses the hierarchical decomposition when the mesh supports
// one, otherwise the cut bounds.
RouteSetMetrics evaluate(const Mesh& mesh, const Router& router,
                         const RoutingProblem& problem,
                         const RouteAllOptions& options = {});

// As above but with a caller-supplied lower bound (avoids recomputing it
// when comparing many algorithms on the same problem).
RouteSetMetrics evaluate_with_bound(const Mesh& mesh, const Router& router,
                                    const RoutingProblem& problem,
                                    double lower_bound,
                                    const RouteAllOptions& options = {});

// The best congestion lower bound available for this mesh.
double best_lower_bound(const Mesh& mesh, const RoutingProblem& problem);

}  // namespace oblivious
