// Multi-trial evaluation: the congestion guarantee of Theorems 3.9 / 4.3
// holds *with high probability*, so experiments need the distribution of C
// over independent runs, not one sample. Trials differ only in the seed
// (the problem is fixed); they run in parallel on a thread pool since
// oblivious routing is embarrassingly parallel.
#pragma once

#include <cstdint>

#include "analysis/evaluate.hpp"
#include "parallel/thread_pool.hpp"

namespace oblivious {

struct TrialSummary {
  RunningStats congestion;   // C per trial
  RunningStats max_stretch;  // max stretch per trial
  RunningStats dilation;     // D per trial
  double lower_bound = 0.0;  // shared C* bound of the (fixed) problem
  // Per-edge *expected* load: mean over trials of each edge's load, then
  // the maximum over edges -- the empirical E[C(e)] that Lemma 3.8 bounds
  // by 16 C* (log D + 3). Exact accounting only: it needs an O(E) sum
  // array, so sketch mode leaves it at 0.
  double max_expected_edge_load = 0.0;
};

// Runs `trials` independent routings of `problem` with seeds
// base_seed, base_seed+1, ...; uses `pool` when provided. Trial t selects
// the paths route_batch selects for seed base_seed + t, and the summary
// is bit-identical with and without a pool. Congestion is measured
// through a LoadAccountant of the requested mode (each trial is
// accounted sequentially inside one worker, so sketch estimates are
// deterministic and thread-count independent).
// \pre trials >= 1.
TrialSummary evaluate_trials(const Mesh& mesh, const Router& router,
                             const RoutingProblem& problem, int trials,
                             std::uint64_t base_seed, ThreadPool* pool = nullptr,
                             const AccountingOptions& accounting = {});

}  // namespace oblivious
