// The one chunked packet driver: the only loop over packets in the
// library. Packet i always draws from packet_rng(seed, i) -- in the
// paper's model its path depends on its own (s_i, t_i) and random bits
// alone (Section 1) -- so workers may claim fixed-size blocks off one
// atomic cursor in any order, and every result is bit-identical for any
// thread count, block size, claim order, and engine (DESIGN.md section 3).
//
// A *sink* decides what happens to each routed packet. Its `Sink::Worker`
// (a PacketWorker constructible from `Sink&`) is built once per driver
// worker on that worker's thread, so it keeps per-worker state without
// locks until close() merges it. A block runs on the SoA engine when the
// router has a kernel, the engine choice allows it, and the sink only
// stores segment paths (PacketRun::segments); otherwise every packet goes
// through the sink's route() on the scalar loop.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

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

// Which inner loop runs a block. Both engines produce bit-identical
// segment output for every algorithm, seed, thread count, and block size
// (the determinism contract of DESIGN.md section 10); the choice is
// purely a throughput decision.
enum class BatchEngine {
  kAuto,    // SoA when the router and the sink allow it, scalar otherwise
  kScalar,  // force the per-packet scalar loop
  kSoa,     // same as kAuto (scalar for unsupported routers and sinks)
};

struct RouteBatchOptions {
  std::uint64_t seed = 1;
  // Packets claimed per cursor bump. 0 picks n/(2*workers) on the SoA
  // engine (its pair grouping amortizes with block size) and
  // n/(8*workers) on the scalar loop (fine blocks steal tail work).
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
  // validated up front per options.validate_demands, read by SoA blocks.
  std::span<const Demand> demands;
  // The sink's stored segment-path array (size == count), when it keeps
  // one and does no other per-packet work. Non-empty enables SoA blocks,
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
  // route() in index order, or by the SoA engine into PacketRun::segments).
  // Block boundaries depend on the block size only, never on threading.
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

// Validates `run`, picks the engine and block size, and runs `per_worker`
// once on each worker (inline when there is one). Returns the call's wall
// time, recorded as its one routing.route_seconds sample.
double drive(const Router& router, ThreadPool* pool, const PacketRun& run,
             const std::function<void(DriverState&)>& per_worker);

// One worker's share: claims blocks until none remain, routes each on the
// chosen engine, reports it to worker.block_done, then closes the worker.
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
  return detail::drive(router, pool, run, [&sink](detail::DriverState& state) {
    typename Sink::Worker worker(sink);
    detail::drain(state, worker);
  });
}

}  // namespace oblivious
