// The one chunked packet driver: the only loop over packets in the
// library. Packet i always draws from packet_rng(seed, i) -- in the
// paper's model its path depends on its own (s_i, t_i) and random bits
// alone (Section 1) -- so workers may claim packets off one atomic cursor
// in any order and grouping, and every result is bit-identical for any
// thread count, claim size, claim order, and engine (DESIGN.md section 3).
//
// A *sink* decides what happens to each routed packet. Its `Sink::Worker`
// (a PacketWorker constructible from `Sink&`) is built once per driver
// worker on that worker's thread, so it keeps per-worker state without
// locks until close() merges it. A run is *grouped* when the router has
// an SoA kernel, the engine choice allows it, and the sink only stores
// segment paths (PacketRun::segments): the driver then sorts the packets
// by (s, t) pair once, workers claim ranges of that group-major order,
// and each group piece runs on the SoA kernel straight into the stored
// array. A sink whose worker does per-block work gets its fixed blocks
// in a second round once every packet is routed. Every other run is the
// per-packet block loop: each packet goes through the sink's route(),
// block by block.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>

#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "rng/rng.hpp"
#include "routing/router.hpp"
#include "util/check.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

class ThreadPool;

// Packet i's private random stream: a function of (seed, i) only, never
// of threading, blocking, or the entry point that routes it.
inline Rng packet_rng(std::uint64_t seed, std::size_t i) {
  return Rng(splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(i))));
}

// Path-length histograms sample every 16th packet (weighted by the
// stride): an exhaustive per-packet bump would blow the <2% observability
// budget enforced by bench_p5_obs_overhead. The stride is a power of two
// and keyed on the packet index, so the sample set is deterministic and
// the same on both engines.
inline constexpr std::size_t kPathLengthSampleStride = 16;
static_assert((kPathLengthSampleStride & (kPathLengthSampleStride - 1)) == 0 &&
                  kPathLengthSampleStride != 0,
              "the sample set is selected with an index mask, which is only "
              "uniform when the stride is a power of two");

// True when packet i belongs to the deterministic path-length sample set.
inline constexpr bool path_length_sampled(std::size_t i) {
  return (i & (kPathLengthSampleStride - 1)) == 0;
}

// Packet i's hop count when it is sampled, else 0: unsampled packets
// never pay for a length.
template <typename PathT>
std::int64_t sampled_hops(std::size_t i, const PathT& path) {
  return path_length_sampled(i) ? path.length() : 0;
}

// Which inner loop routes a packet. Every engine produces bit-identical
// segment output for every algorithm, seed, thread count, and chunk size
// (the determinism contract of DESIGN.md section 10); the choice is
// purely a throughput decision.
enum class BatchEngine {
  // Grouped when the sink allows it and the router's SoA kernel is one
  // that grouping pays for (SoaBatchEngine::Kernel::auto_grouped).
  // E-cube, random-dim-order, unsupported routers, and sinks that do more
  // than store segment paths take the per-packet block loop.
  kAuto,
  kScalar,  // force the per-packet block loop
  // Grouped whenever the router has a kernel and the sink allows it, so
  // e-cube and random-dim-order run on their kernels too; otherwise the
  // per-packet block loop.
  kSoa,
};

struct RouteBatchOptions {
  std::uint64_t seed = 1;
  // Packets per claim off the shared cursor -- in a grouped run, a
  // contiguous range of the group-major order, so a claim boundary may
  // cut a pair group in two -- and the fixed block size handed to
  // PacketWorker::block_done. 0 picks n/(8*workers): fine claims steal
  // tail work.
  std::size_t chunk_size = 0;
  // Validate that every stored demand's endpoints are mesh nodes before
  // routing. The check is O(n) per call; replaying a pre-validated demand
  // set can switch it off (the endpoints cannot have changed).
  bool validate_demands = true;
  BatchEngine engine = BatchEngine::kAuto;
};

// The packets of one driver call.
struct PacketRun {
  std::size_t count = 0;  // packets 0 .. count-1
  // The stored demand array, when the packets have one (size == count):
  // validated up front per options.validate_demands, read by grouped runs.
  std::span<const Demand> demands;
  // The sink's stored segment-path array (size == count), when it keeps
  // one and does no other per-packet work. Non-empty enables grouped runs,
  // which route straight into it instead of calling route().
  std::span<SegmentPath> segments;
  RouteBatchOptions options;
};

// The per-worker half of a sink.
class PacketWorker {
 public:
  virtual ~PacketWorker() = default;

  // Routes packet i, drawing randomness only from `rng` -- its private
  // stream -- and consumes the result. Returns sampled_hops(i, path).
  virtual std::int64_t route(std::size_t i, Rng& rng,
                             RouteScratch& scratch) = 0;

  // Every packet of block `block`, [begin, end), has been routed (by
  // route() in index order, or -- in a grouped run, before any block is
  // handed out -- into PacketRun::segments). Block boundaries depend on
  // the block size only, never on threading or grouping.
  virtual void block_done(std::size_t /*block*/, std::size_t /*begin*/,
                          std::size_t /*end*/) {}

  // The worker claimed its last block; merge into the sink.
  virtual void close() {}
};

// The endpoint check every stored path passes.
inline void check_routed(const Path& p, const Demand& d) {
  OBLV_CHECK(!p.nodes.empty() && p.source() == d.src &&
                 p.destination() == d.dst,
             "router returned a path with wrong endpoints");
}
inline void check_routed(const SegmentPath& sp, const Demand& d) {
  OBLV_CHECK(sp.source == d.src && sp.destination() == d.dst,
             "router returned a path with wrong endpoints");
}

namespace detail {

struct DriverState;

// True when Sink::Worker overrides block_done or close: a grouped run
// then needs a block round after routing. Store-only sinks skip it, so
// each of their calls is one pool round trip.
template <typename Worker>
inline constexpr bool kHasBlockWork =
    !std::is_same_v<decltype(&Worker::block_done),
                    decltype(&PacketWorker::block_done)> ||
    !std::is_same_v<decltype(&Worker::close), decltype(&PacketWorker::close)>;

// Validates `run`, picks the engine and claim size, and runs the call on
// each worker (inline when there is one): the per-packet block loop, or a
// grouped routing round followed, when `block_work`, by a block round.
// `per_worker` builds one sink worker and hands it to drain(). Returns
// the call's wall time, recorded as its one routing.route_seconds sample.
double drive(const Router& router, ThreadPool* pool, const PacketRun& run,
             bool block_work,
             const std::function<void(DriverState&)>& per_worker);

// One sink worker's share: claims blocks until none remain -- routing
// each first unless the grouped round already has -- reports each to
// worker.block_done, then closes the worker.
void drain(DriverState& state, PacketWorker& worker);

}  // namespace detail

// Routes packets 0 .. run.count-1 on `pool` (inline when it is null or
// has one worker), handing them to `Sink::Worker`s. Returns the wall time
// of the call: routing plus the sink's per-packet and per-block work.
// \pre run.demands and run.segments are empty or of size run.count; when
//      validating, a stored demand's endpoints are nodes of the mesh.
template <typename Sink>
double drive_packets(const Router& router, ThreadPool* pool,
                     const PacketRun& run, Sink& sink) {
  using Worker = typename Sink::Worker;
  return detail::drive(router, pool, run, detail::kHasBlockWork<Worker>,
                       [&sink](detail::DriverState& state) {
                         Worker worker(sink);
                         detail::drain(state, worker);
                       });
}

}  // namespace oblivious
