// P10 -- sketch-based congestion accounting.
//
// The claim from DESIGN.md section 14: the conservative-update count-min
// sketch over dyadic range keys (plus the SpaceSaving heavy-line tracker)
// tracks max load and load quantiles in O(sketch_bytes) memory, with
// estimates that never underestimate and stay within the (eps, delta)
// error bound of the exact per-edge array.
//
// Part A (2D 64x64): the same demand stream is accounted exactly and with
// the sketch; reports per-arm throughput, the absolute max-load and p99
// estimation errors, and whether they sit inside the analytical bound
// (gated: within_bound == 1, errors deterministic for the fixed seeds).
//
// Part B (2D 4096x4096, ~33.5M edges): streaming sketch-only accounting.
// The exact array would need ~134 MB; the sketch must stay inside its
// 4 MiB budget while routing the stream (gated: memory cap + throughput
// floor).
//
// Part C (3D 64x64x64, hierarchical-nd): what measuring C costs per
// packet. 24,576 random pairs are routed once; then each arm runs clear +
// add_segment_paths + max_load on 1 thread, best of 5, into the exact
// per-edge array and into a 4 MiB sketch. Time and memory side by side
// (gated: the sketch arm's ns per packet; the sketch-vs-exact ratio is
// reported, not gated, since the exact arm's time varies ~1.6x from run
// to run on a shared host).
//
// Flags: --packets N (Part A stream, default 100000),
//        --huge-packets N (Part B stream, default 200000),
//        --reps N (default 3), --threads N (default 2),
//        --metrics-json FILE (also honors OBLV_METRICS_JSON).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "analysis/sketch/stream_account.hpp"
#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace oblivious;

double best(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

std::unique_ptr<Router> dim_order_router(const Mesh& mesh) {
  return make_router(*algorithm_from_name("random-dim-order"), mesh);
}

void gauge(const std::string& name, double v) {
  obs::MetricsRegistry::global().gauge(name).set(v);
}

// Part A: exact and sketch arms over the identical demand stream.
void run_small(std::size_t packets, int reps, std::size_t threads) {
  std::cout << "\n-- 2D 64x64: exact vs sketch on one stream --\n";
  const Mesh mesh = Mesh::cube(2, 64);
  const auto router = dim_order_router(mesh);
  const DemandSource source = DemandSource::random_pairs(mesh, packets, 7);
  ThreadPool pool(threads);
  StreamAccountOptions options;
  options.seed = 5;

  SketchConfig config;  // defaults: 1 MiB budget, depth 4, 64 heavy lines
  auto exact = LoadAccountant::create(mesh, AccountingMode::kExact);
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);

  std::vector<double> exact_times, sketch_times;
  for (int r = 0; r < reps; ++r) {
    exact->clear();
    exact_times.push_back(
        route_and_account(*router, source, pool, options, *exact).seconds);
    sketch->clear();
    sketch_times.push_back(
        route_and_account(*router, source, pool, options, *sketch).seconds);
  }
  const double exact_best = best(exact_times);
  const double sketch_best = best(sketch_times);
  const double n = static_cast<double>(packets);

  const double bound = sketch->error_bound();
  const auto exact_max = static_cast<double>(exact->max_load());
  const auto sketch_max = static_cast<double>(sketch->max_load());
  const double max_err = sketch_max - exact_max;
  const double p99_err = static_cast<double>(sketch->load_quantile(0.99)) -
                         static_cast<double>(exact->load_quantile(0.99));
  const bool within =
      max_err >= 0.0 && max_err <= bound && p99_err >= 0.0 && p99_err <= bound;

  Table table({"arm", "best ms", "packets/s", "bytes", "max load"});
  table.row()
      .add("exact")
      .add(exact_best * 1e3, 2)
      .add(n / exact_best, 0)
      .add(static_cast<double>(exact->memory_bytes()), 0)
      .add(exact_max, 0);
  table.row()
      .add("sketch")
      .add(sketch_best * 1e3, 2)
      .add(n / sketch_best, 0)
      .add(static_cast<double>(sketch->memory_bytes()), 0)
      .add(sketch_max, 0);
  table.print(std::cout);
  std::cout << "max-load abs err: " << max_err << ", p99 abs err: " << p99_err
            << ", bound: " << bound << " -> "
            << (within ? "WITHIN BOUND" : "BOUND VIOLATED") << "\n";

  gauge("sketch.2d64.exact_pkts_per_sec", n / exact_best);
  gauge("sketch.2d64.sketch_pkts_per_sec", n / sketch_best);
  gauge("sketch.2d64.sketch_vs_exact_ratio", sketch_best / exact_best);
  gauge("sketch.2d64.max_load_abs_err", max_err);
  gauge("sketch.2d64.p99_abs_err", p99_err);
  gauge("sketch.2d64.error_bound", bound);
  gauge("sketch.2d64.within_bound", within ? 1.0 : 0.0);
  gauge("sketch.2d64.memory_bytes", static_cast<double>(sketch->memory_bytes()));
}

// Part B: streaming sketch accounting where exact arrays get painful.
void run_huge(std::size_t packets, std::size_t threads) {
  std::cout << "\n-- 2D 4096x4096: streaming sketch accounting --\n";
  const Mesh mesh = Mesh::cube(2, 4096);
  const auto router = dim_order_router(mesh);
  SketchConfig config;
  config.sketch_bytes = std::size_t{4} << 20;
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  ThreadPool pool(threads);
  StreamAccountOptions options;
  options.seed = 3;
  const StreamAccountResult res = route_and_account(
      *router, DemandSource::random_pairs(mesh, packets, 11), pool, options,
      *sketch);
  const double pps = static_cast<double>(res.packets) /
                     std::max(res.seconds, 1e-9);

  std::cout << "edges: " << mesh.num_edges() << " (exact accounting: "
            << LoadAccountant::exact_bytes(mesh) << " bytes)\n";
  std::cout << "routed " << res.packets << " packets in " << res.seconds
            << " s (" << pps << " pkt/s, " << res.blocks << " blocks)\n";
  std::cout << "sketch: " << sketch->memory_bytes() << " / "
            << config.sketch_bytes << " bytes, max load "
            << sketch->max_load() << ", p99 " << sketch->load_quantile(0.99)
            << "\n";

  gauge("sketch.2d4096.pkts_per_sec", pps);
  gauge("sketch.2d4096.memory_bytes",
        static_cast<double>(sketch->memory_bytes()));
  gauge("sketch.2d4096.budget_bytes", static_cast<double>(config.sketch_bytes));
  gauge("sketch.2d4096.exact_bytes",
        static_cast<double>(LoadAccountant::exact_bytes(mesh)));
  gauge("sketch.2d4096.max_load", static_cast<double>(sketch->max_load()));
  gauge("sketch.2d4096.within_budget",
        sketch->memory_bytes() <= config.sketch_bytes ? 1.0 : 0.0);
}

// Part C: per-packet accounting cost of one routed 3D path set.
void run_probe(std::size_t packets, int reps, std::size_t threads) {
  std::cout << "\n-- 3D 64x64x64 hierarchical-nd: the cost of measuring C --\n";
  const Mesh mesh = Mesh::cube(3, 64);
  const auto router = make_router(*algorithm_from_name("hierarchical-nd"), mesh);
  const DemandSource source = DemandSource::random_pairs(mesh, packets, 23);
  std::vector<Demand> demands;
  demands.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) demands.push_back(source.demand(i));
  std::vector<SegmentPath> paths;
  {
    ThreadPool pool(threads);
    RouteBatchOptions options;
    options.seed = 9;
    route_batch(*router, demands, pool, options, paths);
  }

  SketchConfig config;
  config.sketch_bytes = std::size_t{4} << 20;
  auto exact = LoadAccountant::create(mesh, AccountingMode::kExact);
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  const auto best_ns_per_pkt = [&](LoadAccountant& a) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      const WallTimer timer;
      a.clear();
      a.add_segment_paths(paths);
      a.max_load();
      times.push_back(timer.elapsed_seconds());
    }
    return best(times) / static_cast<double>(packets) * 1e9;
  };
  const double exact_ns = best_ns_per_pkt(*exact);
  const double sketch_ns = best_ns_per_pkt(*sketch);
  const auto exact_bytes = static_cast<double>(exact->memory_bytes());
  const auto sketch_bytes = static_cast<double>(sketch->memory_bytes());

  Table table({"arm", "ns/packet", "time ratio", "bytes", "bytes ratio", "max"});
  table.row()
      .add("exact")
      .add(exact_ns, 0)
      .add(1.0, 2)
      .add(exact_bytes, 0)
      .add(1.0, 3)
      .add(static_cast<double>(exact->max_load()), 0);
  table.row()
      .add("sketch")
      .add(sketch_ns, 0)
      .add(sketch_ns / exact_ns, 2)
      .add(sketch_bytes, 0)
      .add(sketch_bytes / exact_bytes, 3)
      .add(static_cast<double>(sketch->max_load()), 0);
  table.print(std::cout);

  gauge("sketch.3d64.exact_ns_per_pkt", exact_ns);
  gauge("sketch.3d64.sketch_ns_per_pkt", sketch_ns);
  gauge("sketch.3d64.sketch_vs_exact_ratio", sketch_ns / exact_ns);
  gauge("sketch.3d64.exact_bytes", exact_bytes);
  gauge("sketch.3d64.sketch_bytes", sketch_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(
      argc, argv, {"packets", "huge-packets", "reps", "threads",
                   "metrics-json"});
  const auto packets = static_cast<std::size_t>(
      flags.get_int("packets", 100000 * bench::scale()));
  const auto huge_packets = static_cast<std::size_t>(
      flags.get_int("huge-packets", 200000 * bench::scale()));
  const int reps = std::max<int>(1, static_cast<int>(flags.get_int("reps", 3)));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 2));

  bench::banner("P10 / sketch congestion accounting",
                "count-min + SpaceSaving load accounting vs the exact "
                "per-edge array (gate: estimates within the (eps, delta) "
                "bound on 64x64; 4 MiB budget held on 4096x4096; sketch "
                "time per packet on 64^3)");

  run_small(packets, reps, threads);
  run_huge(huge_packets, threads);
  run_probe(static_cast<std::size_t>(24576 * bench::scale()), 5, threads);

  if (flags.has("metrics-json")) {
    obs::write_metrics_json_file(flags.get("metrics-json", ""),
                                 bench::metrics_labels("P10"),
                                 obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}
