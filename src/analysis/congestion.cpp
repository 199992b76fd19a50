#include "analysis/congestion.hpp"

#include <algorithm>
#include <cstdlib>

#include "mesh/contracts.hpp"
#include "obs/metrics.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

EdgeLoadMap::EdgeLoadMap(const Mesh& mesh)
    : mesh_(&mesh), loads_(static_cast<std::size_t>(mesh.num_edges()), 0) {}

std::size_t EdgeLoadMap::bytes_for(const Mesh& mesh) {
  const auto edges = static_cast<std::size_t>(mesh.num_edges());
  const auto nodes = static_cast<std::size_t>(mesh.num_nodes());
  const auto dim = static_cast<std::size_t>(mesh.dim());
  return (edges + dim * nodes) * sizeof(std::uint32_t);
}

void EdgeLoadMap::add_path(const Path& path) {
  // Hop validity is enforced by the always-on per-hop OBLV_REQUIRE below;
  // no gated precondition here so the thrown type is build-independent.
  ++paths_added_;
  if (path.nodes.size() < 2) return;
  edge_charges_ += static_cast<std::uint64_t>(path.length());
  max_valid_ = false;
  // Walk the path with an incrementally maintained coordinate so each hop
  // costs O(d) instead of a full id->coord conversion per node.
  Coord cur = mesh_->coord(path.nodes.front());
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const NodeId b = path.nodes[i + 1];
    const std::int64_t delta = b - path.nodes[i];
    bool matched = false;
    for (int d = 0; d < mesh_->dim() && !matched; ++d) {
      const std::size_t dd = static_cast<std::size_t>(d);
      const std::int64_t side = mesh_->side(d);
      const std::int64_t s = mesh_->node_stride(d);
      if (delta == s && cur[dd] + 1 < side) {
        // +1 step, keyed at the lower endpoint (current coordinate).
        loads_[static_cast<std::size_t>(mesh_->edge_id(cur, d))]++;
        cur[dd] += 1;
        matched = true;
      } else if (delta == -s && cur[dd] - 1 >= 0) {
        cur[dd] -= 1;
        loads_[static_cast<std::size_t>(mesh_->edge_id(cur, d))]++;
        matched = true;
      } else if (mesh_->torus() && side > 2 && cur[dd] == side - 1 &&
                 delta == -s * (side - 1)) {
        // Wrap +1: keyed at coordinate side-1.
        loads_[static_cast<std::size_t>(mesh_->edge_id(cur, d))]++;
        cur[dd] = 0;
        matched = true;
      } else if (mesh_->torus() && side > 2 && cur[dd] == 0 &&
                 delta == s * (side - 1)) {
        // Wrap -1: also keyed at coordinate side-1.
        cur[dd] = side - 1;
        loads_[static_cast<std::size_t>(mesh_->edge_id(cur, d))]++;
        matched = true;
      }
    }
    OBLV_REQUIRE(matched, "path hop is not a mesh edge");
  }
}

void EdgeLoadMap::add_paths(const std::vector<Path>& paths) {
  for (const Path& p : paths) add_path(p);
}

void EdgeLoadMap::add_segments(const SegmentPath& sp) {
  OBLV_REQUIRE(!sp.empty(), "cannot account an empty segment path");
  OBLV_EXPECTS(contracts::validate_segment_path(*mesh_, sp),
               "add_segments needs a valid segment path");
  segments_charged_ += sp.segments.size();
  if (sp.segments.empty()) return;
  // Every unit step of every run (laps included) crosses exactly one edge.
  edge_charges_ += static_cast<std::uint64_t>(sp.length());
  max_valid_ = false;
  const int dim = mesh_->dim();
  const bool torus = mesh_->torus();
  const auto nodes = static_cast<std::size_t>(mesh_->num_nodes());
  if (diff_.empty()) diff_.assign(static_cast<std::size_t>(dim) * nodes, 0U);
  std::uint32_t* const diffs = diff_.data();
  dirty_ = true;
  Coord cur = mesh_->coord(sp.source);
  NodeId node = sp.source;
  for (const Segment& seg : sp.segments) {
    const int d = seg.dim;
    OBLV_REQUIRE(d >= 0 && d < dim, "segment dimension out of range");
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::int64_t side = mesh_->side(d);
    OBLV_REQUIRE(side > 1, "segment along a side-1 dimension");
    const std::int64_t stride = mesh_->node_stride(d);
    std::uint32_t* diff = diffs + dd * nodes;
    const std::int64_t from = cur[dd];
    if (!torus) {
      // A run covers the edges keyed at the nodes from its lower end up
      // to, not including, its upper end. +1 at the lower end and -1 at
      // the upper end is +sign(run) at this node and -sign(run) at the
      // next, so the run's direction costs no branch.
      const std::int64_t to = from + seg.run;
      OBLV_REQUIRE(to >= 0 && to < side, "segment run leaves the mesh");
      const NodeId next = node + seg.run * stride;
      const auto sign = static_cast<std::uint32_t>((seg.run > 0) - (seg.run < 0));
      diff[node] += sign;
      diff[next] -= sign;
      cur[dd] = to;
      node = next;
      continue;
    }
    // The run's line holds nodes first + pos * stride, pos in [0, side).
    // +count on the edges at positions [lo, hi) is charged at the
    // lower-end node and cancelled at the upper-end node; a range that
    // closes at the line's end (a wrap edge) needs no closing marker,
    // since the flush's prefix sum stops there.
    const NodeId first = node - from * stride;
    const auto charge = [&](std::int64_t lo, std::int64_t hi, std::int64_t count) {
      const auto c = static_cast<std::uint32_t>(count);
      diff[first + lo * stride] += c;
      if (hi < side) diff[first + hi * stride] -= c;
    };
    const std::int64_t k = std::abs(seg.run);
    if (side > 2) {
      // Wrapping dimension: whole laps charge the full line, the
      // remainder is a cyclic range split into at most two pieces.
      const std::int64_t laps = k / side;
      if (laps > 0) charge(0, side, laps);
      const std::int64_t rem = k % side;
      if (rem > 0) {
        const std::int64_t start = seg.run > 0 ? from : pos_mod(from - rem, side);
        if (start + rem <= side) {
          charge(start, start + rem, 1);
        } else {
          charge(start, side, 1);
          charge(0, start + rem - side, 1);
        }
      }
    } else {
      // A side-2 torus dimension has a single edge per line (keyed at
      // coordinate 0); every unit step crosses it.
      charge(0, 1, k);
    }
    cur[dd] = pos_mod(from + seg.run, side);
    node = first + cur[dd] * stride;
  }
  OBLV_CHECK(node == sp.dest, "segment path destination mismatch");
}

void EdgeLoadMap::add_segment_paths(const std::vector<SegmentPath>& sps) {
  for (const SegmentPath& sp : sps) add_segments(sp);
}

void EdgeLoadMap::flush() const {
  if (!dirty_) return;
  OBLV_SCOPED_TIMER("loads.flush_seconds");
  dirty_ = false;
  const std::int64_t nodes = mesh_->num_nodes();
  for (int d = 0; d < mesh_->dim(); ++d) {
    // Node ids a*side*stride + pos*stride + b (b < stride) form `stride`
    // whole dimension-d lines, and for pos < radix the edge keyed at that
    // node is a*radix*stride + pos*stride + b past edge_dim_offset(d)
    // (Mesh's edge numbering). So each block of lines prefix-sums along
    // the node stride and adds its first radix rows, unchanged in order,
    // into one contiguous run of loads.
    const std::int64_t side = mesh_->side(d);
    const std::int64_t stride = mesh_->node_stride(d);
    const std::int64_t block = side * stride;
    const std::int64_t charged = mesh_->edge_dim_radix(d) * stride;
    std::uint32_t* diff = diff_.data() + static_cast<std::size_t>(d * nodes);
    std::uint32_t* loads =
        loads_.data() + static_cast<std::size_t>(mesh_->edge_dim_offset(d));
    for (std::int64_t a = 0; a < nodes / block; ++a) {
      for (std::int64_t i = stride; i < block; ++i) diff[i] += diff[i - stride];
      for (std::int64_t i = 0; i < charged; ++i) {
        loads[i] += diff[i];
        diff[i] = 0;
      }
      std::fill(diff + charged, diff + block, 0U);
      diff += block;
      loads += charged;
    }
  }
}

void EdgeLoadMap::merge(const EdgeLoadMap& other) {
  OBLV_REQUIRE(mesh_->num_edges() == other.mesh_->num_edges(),
               "cannot merge load maps over different meshes");
  flush();
  other.flush();
  for (std::size_t e = 0; e < loads_.size(); ++e) {
    loads_[e] += other.loads_[e];
  }
  segments_charged_ += other.segments_charged_;
  paths_added_ += other.paths_added_;
  edge_charges_ += other.edge_charges_;
  max_valid_ = false;
  OBLV_ENSURES(contracts::validate_load_map_consistency(*this),
               "merged loads must sum to the merged hop count");
}

void EdgeLoadMap::clear() {
  std::fill(loads_.begin(), loads_.end(), 0U);
  // A flush leaves the difference arrays zero, so only pending charges
  // need dropping.
  if (dirty_) std::fill(diff_.begin(), diff_.end(), 0U);
  dirty_ = false;
  edge_charges_ = 0;
  max_cache_ = 0;
  max_valid_ = true;
}

std::uint32_t EdgeLoadMap::load(EdgeId e) const {
  OBLV_REQUIRE(e >= 0 && e < mesh_->num_edges(), "edge id out of range");
  flush();
  return loads_[static_cast<std::size_t>(e)];
}

std::uint32_t EdgeLoadMap::max_load() const {
  if (max_valid_) return max_cache_;
  flush();
  std::uint32_t best = 0;
  for (const std::uint32_t l : loads_) best = std::max(best, l);
  max_cache_ = best;
  max_valid_ = true;
  return best;
}

EdgeId EdgeLoadMap::argmax() const {
  flush();
  std::size_t best = 0;
  for (std::size_t i = 1; i < loads_.size(); ++i) {
    if (loads_[i] > loads_[best]) best = i;
  }
  return static_cast<EdgeId>(best);
}

double EdgeLoadMap::mean_nonzero() const {
  flush();
  std::uint64_t sum = 0;
  std::int64_t used = 0;
  for (const std::uint32_t l : loads_) {
    if (l > 0) {
      sum += l;
      ++used;
    }
  }
  return used > 0 ? static_cast<double>(sum) / static_cast<double>(used) : 0.0;
}

std::int64_t EdgeLoadMap::edges_used() const {
  flush();
  std::int64_t used = 0;
  for (const std::uint32_t l : loads_) {
    if (l > 0) ++used;
  }
  return used;
}

IntHistogram EdgeLoadMap::histogram() const {
  flush();
  IntHistogram h;
  for (const std::uint32_t l : loads_) h.add(static_cast<std::int64_t>(l));
  return h;
}

void EdgeLoadMap::record_metrics(const std::string& prefix) const {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::global();
  const IntHistogram h = histogram();  // flushes
  registry.gauge(prefix + ".max_edge_load")
      .set(static_cast<double>(max_load()));
  registry.gauge(prefix + ".p50_edge_load")
      .set(static_cast<double>(h.quantile(0.5)));
  registry.gauge(prefix + ".p99_edge_load")
      .set(static_cast<double>(h.quantile(0.99)));
  registry.gauge(prefix + ".edges_used")
      .set(static_cast<double>(edges_used()));
  registry.gauge(prefix + ".mean_nonzero_load").set(mean_nonzero());
  registry.histogram(prefix + ".edge_load").merge_int_histogram(h);
  // Counters report the charges accumulated since the previous call, so
  // repeated snapshots of a long-lived map do not double count.
  registry.counter(prefix + ".segments_charged")
      .add(segments_charged_ - reported_segments_);
  registry.counter(prefix + ".paths_added").add(paths_added_ - reported_paths_);
  reported_segments_ = segments_charged_;
  reported_paths_ = paths_added_;
}

namespace contracts {

bool validate_load_map_consistency(const EdgeLoadMap& loads) {
  std::uint64_t sum = 0;
  for (EdgeId e = 0; e < loads.mesh().num_edges(); ++e) {
    sum += loads.load(e);  // first call flushes pending difference arrays
  }
  return sum == loads.total_edge_charges();
}

}  // namespace contracts

}  // namespace oblivious
