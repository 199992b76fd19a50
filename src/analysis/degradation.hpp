// Graceful-degradation measurement: how an oblivious algorithm's delivery
// rate and path quality decay as links fail.
//
// The paper's recovery story (Section 1: path selection is online and
// local) predicts that a fault-aware oblivious router degrades smoothly:
// each re-draw is independent, so a fault rate of epsilon should cost
// O(epsilon) extra stretch and drop only the packets whose neighborhoods
// are disconnected. degradation_sweep quantifies exactly that -- it routes
// one problem through a FaultAwareRouter at each fault rate in a sweep and
// reports, per rate, the delivery rate, the stretch added over the
// fault-free baseline (recovery backoff included), and the congestion
// inflation of the delivered traffic.
//
// Determinism: paths, statuses, and every reported number are
// bit-identical for any thread count -- the fault schedule and the
// per-packet rng streams are both counter-derived (fault/fault_model.hpp,
// parallel/packet_driver.hpp), and all merges are integer sums.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "fault/fault_batch.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_router.hpp"
#include "mesh/mesh.hpp"
#include "routing/router.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

class ThreadPool;

// One (algorithm, fault rate) cell of the degradation curve.
struct DegradationPoint {
  std::string algorithm;
  double fault_rate = 0.0;           // per-edge per-step failure probability
  std::int64_t failures_injected = 0;  // fail events the model materialized
  std::int64_t demands = 0;
  std::int64_t delivered = 0;        // clean + retried + detoured
  std::int64_t dropped = 0;          // delivered + dropped == demands
  std::int64_t retried = 0;
  std::int64_t detoured = 0;
  std::int64_t attempts = 0;         // total inner draws consumed
  std::int64_t backoff_steps = 0;    // total recovery latency charged
  double delivery_rate = 0.0;        // delivered / demands (1.0 at rate 0)
  // Mean stretch of the delivered traffic with recovery latency folded
  // in: (delivered hops + backoff steps) / (delivered shortest distance).
  double mean_stretch = 0.0;
  double added_stretch = 0.0;        // mean_stretch - fault-free baseline
  std::int64_t congestion = 0;       // C over the delivered paths only
  double congestion_inflation = 0.0; // congestion / max(baseline C, 1)
};

struct DegradationOptions {
  std::uint64_t route_seed = 1;  // per-packet path-selection streams
  std::uint64_t fault_seed = 1;  // fault schedule derivation
  // Two-state Markov chain parameters shared by every swept rate; with
  // horizon = 1 each model is a static snapshot drawn from the chain's
  // stationary distribution (fraction of dead edges = p / (p + r)).
  double repair_prob = 0.25;
  std::int64_t horizon = 1;
  RetryPolicy retry;
  // How the per-cell congestion is accounted (sketch mode frees the sweep
  // from O(E) load arrays; the delivered traffic is accounted
  // sequentially, so estimates stay deterministic).
  AccountingOptions accounting;
};

// Routes `problem` through `router` wrapped in a FaultAwareRouter at each
// fault rate (rate 0 is the draw-for-draw fault-free baseline; include it
// to anchor added_stretch and congestion_inflation -- when absent the
// baseline is computed internally and not reported).
// \pre every fault rate is in [0, 1] and every demand's endpoints are
// node ids of `mesh` (which must be `router`'s mesh).
std::vector<DegradationPoint> degradation_sweep(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    std::span<const double> fault_rates, ThreadPool& pool,
    const DegradationOptions& options = {});

}  // namespace oblivious
