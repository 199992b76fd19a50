#include "simulator/cut_through.hpp"

#include <algorithm>
#include <memory>

#include "analysis/congestion.hpp"
#include "mesh/contracts.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"
#include "routing/route_scratch.hpp"
#include "simulator/link_arbiter.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

double CutThroughResult::optimality_ratio() const {
  const std::int64_t bound =
      std::max(congestion * flits, dilation + flits - 1);
  if (bound == 0) return 1.0;
  return static_cast<double>(makespan) / static_cast<double>(bound);
}

CutThroughResult simulate_cut_through(const Mesh& mesh,
                                      const std::vector<Path>& paths,
                                      const CutThroughOptions& options) {
  OBLV_REQUIRE(options.flits_per_packet >= 1, "packets need >= 1 flit");
  OBLV_REQUIRE(options.faults == nullptr || &options.faults->mesh() == &mesh,
               "fault model must describe the simulated mesh");
  OBLV_REQUIRE(options.reroute_router == nullptr ||
                   &options.reroute_router->mesh() == &mesh,
               "reroute router must route on the simulated mesh");
  const std::int64_t F = options.flits_per_packet;

  CutThroughResult result;
  result.flits = F;
  result.injected = static_cast<std::int64_t>(paths.size());
  const bool faulty =
      options.faults != nullptr && !options.faults->fault_free();

  struct PacketState {
    std::size_t hop = 0;       // its next link key's index in `keys`
    std::size_t end = 0;       // one past its last link key's index
    std::size_t start = 0;     // `keys` index of its current path's first hop
    std::int64_t arrival = 0;  // step its head crossed its last link
    std::uint64_t rank = 0;
    int retries = 0;           // fault requeues consumed
    std::int64_t wait_until = 0;  // backoff: head idles until this step
  };

  // The link keys of every path, back to back (a reroute appends the new
  // path's), plus path-set metrics.
  std::vector<EdgeId> keys;
  std::vector<PacketState> state(paths.size());
  const std::unique_ptr<LoadAccountant> loads = LoadAccountant::create(
      mesh, options.accounting.mode, options.accounting.sketch);
  std::int64_t total_hops = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Path& p = paths[i];
    OBLV_REQUIRE(!p.nodes.empty(), "simulation requires non-empty paths");
    OBLV_EXPECTS(contracts::validate_path_in_mesh(mesh, p),
                 "cut-through simulation needs paths that follow mesh edges");
    loads->add_path(p);
    state[i].hop = state[i].start = keys.size();
    append_link_keys(mesh, p.nodes, options.full_duplex, keys);
    state[i].end = keys.size();
    total_hops += p.length();
    result.dilation = std::max(result.dilation, p.length());
  }
  result.congestion = static_cast<std::int64_t>(loads->max_load());

  // Under faults the default budget gets slack for backoff waits and
  // repair intervals; runs that still exceed it report completed = false.
  const std::int64_t fault_free_budget =
      F * total_hops + result.dilation + F + 1;
  const std::int64_t max_steps =
      options.max_steps > 0
          ? options.max_steps
          : (faulty ? 4 * fault_free_budget + 1024 : fault_free_budget);

  // Mutable node sequences, needed only when a reroute can rewrite a
  // packet's remaining path.
  std::vector<std::vector<NodeId>> cur_nodes;
  if (faulty) {
    cur_nodes.resize(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      cur_nodes[i] = paths[i].nodes;
    }
  }
  const auto edge_of = [&](EdgeId key) {
    return options.full_duplex ? key / 2 : key;
  };

  Rng rng(options.seed);
  RouteScratch scratch;
  std::vector<std::size_t> active;
  active.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    state[i].rank = rng.next_u64();
    if (state[i].hop == state[i].end) {
      result.latency.add(static_cast<double>(F - 1));  // tail drains locally
      ++result.delivered;
    } else {
      active.push_back(i);
    }
  }

  // A link streams one packet's F flits at a time: busy through this step.
  const EdgeId links = mesh.num_edges() * (options.full_duplex ? 2 : 1);
  std::vector<std::int64_t> busy_until(static_cast<std::size_t>(links));

  LinkArbiter arbiter(mesh, options.full_duplex, options.policy);
  std::int64_t step = 0;
  while (!active.empty() && step < max_steps) {
    ++step;
    for (const std::size_t i : active) {
      if (state[i].wait_until > step) continue;
      const EdgeId key = keys[state[i].hop];
      // A failed link refuses the head flit; the packet requeues below.
      if (faulty && options.faults->edge_failed(edge_of(key), step)) continue;
      if (busy_until[static_cast<std::size_t>(key)] >= step) continue;
      arbiter.request(key, step, state, i);
    }
    // Packets still in flight compact to the front of `active`, in order.
    std::size_t kept = 0;
    for (const std::size_t i : active) {
      PacketState& st = state[i];
      const EdgeId key = keys[st.hop];
      if (faulty && st.wait_until <= step &&
          options.faults->edge_failed(edge_of(key), step)) {
        // Requeue with backoff, or drop once the budget is spent -- the
        // packet always leaves the network counted.
        if (st.retries >= options.retry.max_attempts) {
          ++result.dropped;
          OBLV_COUNTER_ADD("fault.drops", 1);
          continue;
        }
        ++st.retries;
        const std::int64_t backoff = options.retry.backoff_base
                                     << std::min(st.retries - 1, 32);
        OBLV_COUNTER_ADD("fault.retries", 1);
        OBLV_COUNTER_ADD("fault.backoff_steps",
                         static_cast<std::uint64_t>(backoff));
        st.wait_until = step + backoff;
        if (options.reroute_router != nullptr) {
          // Fresh random bits from the node the head is stuck at.
          const NodeId at = cur_nodes[i][st.hop - st.start];
          const NodeId dst = cur_nodes[i].back();
          options.reroute_router->route_into(at, dst, rng, scratch,
                                             scratch.path);
          cur_nodes[i] = scratch.path.nodes;
          st.hop = st.start = keys.size();
          append_link_keys(mesh, cur_nodes[i], options.full_duplex, keys);
          st.end = keys.size();
        }
        active[kept++] = i;
        continue;
      }
      if (!arbiter.won(key, step, i)) {
        active[kept++] = i;
        continue;
      }
      // The head crosses at this step; the link streams flits behind it.
      busy_until[static_cast<std::size_t>(key)] = step + F - 1;
      ++st.hop;
      st.arrival = step;
      if (st.hop == st.end) {
        const std::int64_t tail_arrival = step + F - 1;
        result.latency.add(static_cast<double>(tail_arrival));
        result.makespan = std::max(result.makespan, tail_arrival);
        ++result.delivered;
      } else {
        active[kept++] = i;
      }
    }
    active.resize(kept);
  }

  result.completed = active.empty();
  if (result.completed) {
    OBLV_CHECK(result.delivered + result.dropped == result.injected,
               "cut-through fault accounting: every packet must end "
               "delivered or dropped");
  }
  return result;
}

}  // namespace oblivious
