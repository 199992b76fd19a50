#include "analysis/evaluate.hpp"

#include <algorithm>
#include <memory>

#include "analysis/congestion.hpp"
#include "obs/metrics.hpp"
#include "parallel/packet_driver.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace oblivious {

namespace {

// The metrics of a stored path set whose loads `loads` has accounted:
// dilation and stretch from the paths, congestion from the accountant;
// publishes them as the routing.* quality gauges.
RouteSetMetrics path_set_metrics(const Mesh& mesh,
                                 const RoutingProblem& problem,
                                 const std::vector<SegmentPath>& paths,
                                 const LoadAccountant& loads,
                                 double lower_bound) {
  if (const EdgeLoadMap* exact = loads.exact_loads()) {
    OBLV_ENSURES(contracts::validate_load_map_consistency(*exact),
                 "segment accounting must agree with the hop count");
  }
  RouteSetMetrics m;
  m.packets = paths.size();
  m.max_distance = problem.max_distance(mesh);
  m.lower_bound = lower_bound;
  m.accounting = loads.mode();
  m.accounting_bytes = loads.memory_bytes();
  m.accounting_error_bound = loads.error_bound();
  const bool obs_on = obs::metrics_enabled();
  RunningStats stretch;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    m.dilation = std::max(m.dilation, paths[i].length());
    if (problem.demands[i].src != problem.demands[i].dst) {
      const double s = segment_path_stretch(mesh, paths[i]);
      stretch.add(s);
      if (obs_on) OBLV_HISTOGRAM_ADD("routing.stretch", s);
    }
  }
  m.congestion = static_cast<std::int64_t>(loads.max_load());
  m.max_stretch = stretch.count() > 0 ? stretch.max() : 1.0;
  m.mean_stretch = stretch.count() > 0 ? stretch.mean() : 1.0;
  m.congestion_ratio = static_cast<double>(m.congestion) /
                       std::max(lower_bound, 1.0);
  if (obs_on) {
    loads.record_metrics("loads");
    OBLV_GAUGE_SET("routing.congestion", m.congestion);
    OBLV_GAUGE_SET("routing.dilation", m.dilation);
    OBLV_GAUGE_SET("routing.max_stretch", m.max_stretch);
    OBLV_GAUGE_SET("routing.mean_stretch", m.mean_stretch);
    OBLV_GAUGE_SET("routing.congestion_ratio", m.congestion_ratio);
    OBLV_GAUGE_SET("routing.lower_bound", m.lower_bound);
  }
  return m;
}

// The measuring sink shared by evaluate and route_and_measure_parallel:
// stores packet i's segment path in paths[i], and once a block is routed
// charges its packets in index order to the worker's accounting shard. In
// a grouped run the blocks come in a round of their own after routing,
// so a worker's shard is set up (clone_empty) only there. Optionally
// erases each path's cycles and meters its random bits, which keeps the
// run on the per-packet block loop.
struct MeasureSink {
  const Mesh& mesh;
  const Router& router;
  std::span<const Demand> demands;
  std::vector<SegmentPath>& paths;
  LoadAccountant& accountant;
  bool erase_cycles;
  // Per-packet bit counts (indexed by packet), or null when not metering.
  std::vector<std::uint64_t>* bits;
  oblv::Mutex fold_mutex;

  struct Worker final : PacketWorker {
    explicit Worker(MeasureSink& s)
        : sink(s), shard(s.accountant, s.fold_mutex) {}

    std::int64_t route(std::size_t i, Rng& rng,
                       RouteScratch& scratch) override {
      BitMeter meter;
      if (sink.bits != nullptr) rng.attach_meter(&meter);
      SegmentPath& path = sink.paths[i];
      const Demand& d = sink.demands[i];
      route_to(sink.router, d.src, d.dst, rng, scratch, path);
      check_routed(path, d);
      if (sink.erase_cycles) {
        // Loop erasure needs the node sequence; round-trip through it.
        path = segments_from_path(
            sink.mesh, remove_cycles(path_from_segments(sink.mesh, path)));
      }
      if (sink.bits != nullptr) {
        (*sink.bits)[i] = meter.bits;
        draws += meter.draws;
      }
      return sampled_hops(i, path);
    }

    void block_done(std::size_t block, std::size_t begin,
                    std::size_t end) override {
      for (std::size_t i = begin; i < end; ++i) {
        shard.shard().add_segments(sink.paths[i]);
      }
      shard.end_block(block);
    }

    void close() override {
      shard.close();
      if (sink.bits != nullptr) OBLV_COUNTER_ADD("routing.rng_draws", draws);
    }

    MeasureSink& sink;
    AccountingShard shard;
    std::uint64_t draws = 0;
  };
};

// One measuring pass on `pool` (inline when null).
RouteSetMetrics route_and_measure(const Mesh& mesh, const Router& router,
                                  const RoutingProblem& problem,
                                  double lower_bound, ThreadPool* pool,
                                  const RouteAllOptions& options,
                                  const AccountingOptions& accounting,
                                  std::vector<SegmentPath>* paths_out) {
  std::vector<SegmentPath> paths(problem.size());
  const std::unique_ptr<LoadAccountant> accountant =
      LoadAccountant::create(mesh, accounting.mode, accounting.sketch);
  std::vector<std::uint64_t> bits(options.meter_bits ? problem.size() : 0);
  PacketRun run;
  run.count = problem.size();
  run.demands = problem.demands;
  if (!options.meter_bits && !options.erase_cycles) run.segments = paths;
  run.options.seed = options.seed;
  // FIXED-SIZE accounting blocks, never thread-count-derived chunks:
  // exact loads commute under addition, but the sketch's conservative
  // updates and heavy-line summaries depend on update grouping, and a
  // fixed block partition plus the ordered fold makes the result
  // bit-identical for any pool size and completion order.
  run.options.chunk_size =
      std::max<std::size_t>(1, accounting.sketch.block_size);
  MeasureSink sink{mesh,
                   router,
                   problem.demands,
                   paths,
                   *accountant,
                   options.erase_cycles,
                   options.meter_bits ? &bits : nullptr,
                   {}};
  const double seconds = drive_packets(router, pool, run, sink);

  RouteSetMetrics m =
      path_set_metrics(mesh, problem, paths, *accountant, lower_bound);
  m.algorithm = router.name();
  m.routing_seconds = seconds;
  if (options.meter_bits) {
    std::uint64_t total = 0;
    for (const std::uint64_t b : bits) {
      m.bits_per_packet.add(static_cast<double>(b));
      total += b;
    }
    OBLV_COUNTER_ADD("routing.rng_bits", total);
  }
  if (paths_out != nullptr) *paths_out = std::move(paths);
  return m;
}

}  // namespace

RouteSetMetrics measure_segment_paths(const Mesh& mesh,
                                      const RoutingProblem& problem,
                                      const std::vector<SegmentPath>& paths,
                                      double lower_bound) {
  OBLV_REQUIRE(paths.size() == problem.size(), "one path per demand required");
  const std::unique_ptr<LoadAccountant> loads =
      LoadAccountant::create(mesh, AccountingMode::kExact);
  loads->add_segment_paths(paths);
  return path_set_metrics(mesh, problem, paths, *loads, lower_bound);
}

RouteSetMetrics route_and_measure_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    double lower_bound, ThreadPool& pool, std::uint64_t seed,
    const AccountingOptions& accounting,
    std::vector<SegmentPath>* paths_out) {
  RouteAllOptions options;
  options.seed = seed;
  options.meter_bits = false;
  return route_and_measure(mesh, router, problem, lower_bound, &pool, options,
                           accounting, paths_out);
}

double best_lower_bound(const Mesh& mesh, const RoutingProblem& problem) {
  if (mesh.is_square() && mesh.sides_power_of_two()) {
    const Decomposition decomp = Decomposition::section4(mesh);
    return congestion_lower_bound(mesh, decomp, problem).value();
  }
  return congestion_lower_bound(mesh, problem).value();
}

RouteSetMetrics evaluate_with_bound(const Mesh& mesh, const Router& router,
                                    const RoutingProblem& problem,
                                    double lower_bound,
                                    const RouteAllOptions& options) {
  return route_and_measure(mesh, router, problem, lower_bound, nullptr,
                           options, AccountingOptions{}, nullptr);
}

RouteSetMetrics evaluate(const Mesh& mesh, const Router& router,
                         const RoutingProblem& problem,
                         const RouteAllOptions& options) {
  return evaluate_with_bound(mesh, router, problem,
                             best_lower_bound(mesh, problem), options);
}

}  // namespace oblivious
