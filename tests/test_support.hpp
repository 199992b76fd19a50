// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mesh/mesh.hpp"
#include "rng/rng.hpp"
#include "workloads/problem.hpp"

namespace oblivious::testing {

// Deterministic sample of `count` distinct-source/destination pairs.
inline std::vector<std::pair<NodeId, NodeId>> sample_pairs(const Mesh& mesh,
                                                           std::size_t count,
                                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const NodeId s = static_cast<NodeId>(
        rng.uniform_below(static_cast<std::uint64_t>(mesh.num_nodes())));
    const NodeId t = static_cast<NodeId>(
        rng.uniform_below(static_cast<std::uint64_t>(mesh.num_nodes())));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

// Packets [begin, end) of `demands` grouped by (s, t) pair, each group's
// indices in index order: the pieces the packet driver hands the SoA
// engine when a claim covers exactly those packets.
struct PairGroup {
  Demand pair;
  std::vector<std::uint64_t> packets;
};
inline std::vector<PairGroup> group_by_pair(const std::vector<Demand>& demands,
                                            std::size_t begin,
                                            std::size_t end) {
  std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>> by_pair;
  for (std::size_t i = begin; i < end; ++i) {
    by_pair[{demands[i].src, demands[i].dst}].push_back(i);
  }
  std::vector<PairGroup> groups;
  for (auto& [pair, packets] : by_pair) {
    groups.push_back({Demand{pair.first, pair.second}, std::move(packets)});
  }
  return groups;
}

// Pretty parameter names for TEST_P instantiations.
inline std::string param_name(std::int64_t side, bool torus) {
  return (torus ? std::string("torus") : std::string("mesh")) + std::to_string(side);
}

}  // namespace oblivious::testing
