// P5 -- observability overhead on the hot pipeline.
//
// The obs/ instrumentation promises to be cheap enough to leave on in
// production: per-packet data is batched into loop-local accumulators and
// flushed to the registry once per chunk, so the per-packet cost is one
// branch plus a histogram bump. This harness proves the budget on the same
// 64x64 / 100k-packet one-bend pipeline as P4: it interleaves repetitions
// with metrics enabled and disabled (same binary, runtime toggle) and
// compares the *minimum* time of each arm. Scheduler and cache noise is
// strictly additive, so the per-arm minimum converges on the true cost and
// the ratio of minima is robust even on loaded single-core hosts, where
// medians of per-pair ratios still drift by a few percent. The gate is
// <2%. Building with -DOBLV_METRICS=OFF compiles the instrumentation out
// entirely, which makes both arms identical by construction.
//
// Flags: --packets N (default 100000), --reps N (default 7),
//        --metrics-json FILE (also honors OBLV_METRICS_JSON).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "analysis/congestion.hpp"
#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace {

using namespace oblivious;

RoutingProblem random_pairs(const Mesh& mesh, std::size_t packets) {
  Rng rng(7);
  RoutingProblem p;
  p.demands.reserve(packets);
  const auto nodes = static_cast<std::uint64_t>(mesh.num_nodes());
  while (p.demands.size() < packets) {
    const auto s = static_cast<NodeId>(rng.uniform_below(nodes));
    const auto t = static_cast<NodeId>(rng.uniform_below(nodes));
    if (s != t) p.demands.push_back({s, t});
  }
  return p;
}

// One full pipeline pass: route every packet as segments on the packet
// driver's scalar loop (the per-packet path whose instrumentation the
// budget polices) on the calling thread, account every edge load, reduce
// to the maximum. Returns wall seconds; accumulates the congestion into
// `checksum` so the work cannot be optimized away.
double run_once(const Mesh& mesh, const Router& router,
                const RoutingProblem& problem, std::uint64_t& checksum) {
  WallTimer timer;
  ThreadPool inline_pool(1);
  RouteBatchOptions options;
  options.seed = 1;
  options.engine = BatchEngine::kScalar;
  std::vector<SegmentPath> paths;
  route_batch(router, problem.demands, inline_pool, options, paths);
  EdgeLoadMap loads(mesh);
  loads.add_segment_paths(paths);
  checksum += loads.max_load();
  return timer.elapsed_seconds();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags =
      Flags::parse(argc, argv, {"packets", "reps", "metrics-json"});
  const auto packets =
      static_cast<std::size_t>(flags.get_int("packets", 100000));
  const int reps = std::max<int>(1, static_cast<int>(flags.get_int("reps", 7)));

  bench::banner("P5 / observability overhead",
                "metrics enabled vs disabled on the 64x64/100k one-bend "
                "pipeline (budget: <2%)");

  const Mesh mesh = Mesh::cube(2, 64);
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  const RoutingProblem problem = random_pairs(mesh, packets);

  std::uint64_t checksum = 0;
  // Warm both arms once (page-faults, allocator, branch predictors).
  obs::set_metrics_enabled(true);
  run_once(mesh, *router, problem, checksum);
  obs::set_metrics_enabled(false);
  run_once(mesh, *router, problem, checksum);

  // Interleave the arms so drift (thermal, background load) hits both,
  // then compare the fastest run of each arm: noise only ever adds time,
  // so the minima are the cleanest estimates of the true per-arm cost.
  std::vector<double> on_seconds;
  std::vector<double> off_seconds;
  for (int r = 0; r < reps; ++r) {
    obs::set_metrics_enabled(true);
    on_seconds.push_back(run_once(mesh, *router, problem, checksum));
    obs::set_metrics_enabled(false);
    off_seconds.push_back(run_once(mesh, *router, problem, checksum));
  }
  obs::set_metrics_enabled(true);

  const double on_best = *std::min_element(on_seconds.begin(), on_seconds.end());
  const double off_best =
      *std::min_element(off_seconds.begin(), off_seconds.end());
  const double overhead_pct = (on_best - off_best) / off_best * 100.0;

  Table table({"arm", "reps", "best ms", "median ms", "packets/s"});
  table.row()
      .add("metrics on")
      .add(reps)
      .add(on_best * 1e3, 2)
      .add(median(on_seconds) * 1e3, 2)
      .add(static_cast<double>(packets) / on_best, 0);
  table.row()
      .add("metrics off")
      .add(reps)
      .add(off_best * 1e3, 2)
      .add(median(off_seconds) * 1e3, 2)
      .add(static_cast<double>(packets) / off_best, 0);
  table.print(std::cout);
  std::cout << "overhead: " << overhead_pct << "% (budget <2%)\n"
            << "checksum: " << checksum << "\n";

  OBLV_GAUGE_SET("obs.overhead_pct", overhead_pct);
  OBLV_GAUGE_SET("obs.enabled_best_seconds", on_best);
  OBLV_GAUGE_SET("obs.disabled_best_seconds", off_best);
  if (flags.has("metrics-json")) {
    obs::write_metrics_json_file(flags.get("metrics-json", ""),
                                 {{"bench", "bench_p5_obs_overhead"}},
                                 obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}
