#include "analysis/trials.hpp"

#include <memory>
#include <vector>

#include "analysis/congestion.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace oblivious {

TrialSummary evaluate_trials(const Mesh& mesh, const Router& router,
                             const RoutingProblem& problem, int trials,
                             std::uint64_t base_seed, ThreadPool* pool,
                             const AccountingOptions& accounting) {
  OBLV_REQUIRE(trials >= 1, "need at least one trial");
  OBLV_SCOPED_TIMER("trials.total_seconds");
  TrialSummary summary;
  summary.lower_bound = best_lower_bound(mesh, problem);

  // The expected-load sweep needs an O(E) sum array -- exactly what
  // sketch mode exists to avoid, so it only runs under exact accounting.
  const bool track_expected = accounting.mode == AccountingMode::kExact;
  std::vector<double> edge_load_sums(
      track_expected ? static_cast<std::size_t>(mesh.num_edges()) : 0, 0.0);
  oblv::Mutex merge_mutex;
  // Per-trial results, reduced in trial order below: the summary is then
  // bit-identical with and without a pool.
  const auto n_trials = static_cast<std::size_t>(trials);
  std::vector<double> congestion(n_trials), dilation(n_trials),
      max_stretch(n_trials, 1.0);

  const auto run_range = [&](std::size_t begin, std::size_t end) {
    const bool obs_on = obs::metrics_enabled();
    RunningStats trial_seconds;
    IntHistogram congestion_hist;
    // Every buffer lives across the whole trial range: the accountant is
    // cleared (not reallocated) between trials, and the path vector keeps
    // its capacity. A trial's packets run inline on the packet driver (a
    // one-thread pool has no workers), so parallelism stays across trials
    // and per-trial accounting is sequential: sketch estimates depend only
    // on the trial's paths -- never on threading.
    std::vector<double> local_sums(edge_load_sums.size(), 0.0);
    const std::unique_ptr<LoadAccountant> loads =
        LoadAccountant::create(mesh, accounting.mode, accounting.sketch);
    ThreadPool inline_pool(1);
    std::vector<SegmentPath> paths;
    for (std::size_t t = begin; t < end; ++t) {
      WallTimer trial_timer;
      RouteBatchOptions options;
      options.seed = base_seed + t;
      route_batch(router, problem.demands, inline_pool, options, paths);
      loads->clear();
      loads->add_segment_paths(paths);
      congestion[t] = static_cast<double>(loads->max_load());
      std::int64_t hops = 0;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        hops = std::max(hops, paths[i].length());
        if (problem.demands[i].src != problem.demands[i].dst) {
          max_stretch[t] =
              std::max(max_stretch[t], segment_path_stretch(mesh, paths[i]));
        }
      }
      dilation[t] = static_cast<double>(hops);
      if (track_expected) {
        for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
          local_sums[static_cast<std::size_t>(e)] +=
              static_cast<double>(loads->estimate_load(e));
        }
      }
      if (obs_on) {
        trial_seconds.add(trial_timer.elapsed_seconds());
        congestion_hist.add(static_cast<std::int64_t>(loads->max_load()));
      }
    }
    if (obs_on) {
      // One registry visit per chunk, into this worker's own shard.
      OBLV_STAT_MERGE("trials.trial_seconds", trial_seconds);
      OBLV_HISTOGRAM_MERGE("trials.congestion", congestion_hist);
      OBLV_COUNTER_ADD("trials.trials_run", end - begin);
      loads->record_metrics("loads");
    }
    // Loads are integers, so these double sums are exact and commute.
    oblv::MutexLock lock(merge_mutex);
    for (std::size_t e = 0; e < edge_load_sums.size(); ++e) {
      edge_load_sums[e] += local_sums[e];
    }
  };

  if (pool != nullptr) {
    parallel_for_chunks(*pool, n_trials, run_range);
  } else {
    run_range(0, n_trials);
  }

  for (std::size_t t = 0; t < n_trials; ++t) {
    summary.congestion.add(congestion[t]);
    summary.dilation.add(dilation[t]);
    summary.max_stretch.add(max_stretch[t]);
  }
  for (const double sum : edge_load_sums) {
    summary.max_expected_edge_load = std::max(
        summary.max_expected_edge_load, sum / static_cast<double>(trials));
  }
  if (obs::metrics_enabled()) {
    OBLV_GAUGE_SET("trials.mean_congestion", summary.congestion.mean());
    OBLV_GAUGE_SET("trials.max_congestion", summary.congestion.max());
    OBLV_GAUGE_SET("trials.max_expected_edge_load",
                   summary.max_expected_edge_load);
    OBLV_GAUGE_SET("trials.lower_bound", summary.lower_bound);
  }
  return summary;
}

}  // namespace oblivious
