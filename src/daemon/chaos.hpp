// Deterministic network-chaos fault points for the daemon transport.
//
// The routing core owes its testability to seeded determinism (every
// draw is a pure function of a seed and a counter -- see FaultModel in
// src/fault/ and packet_rng in src/parallel/packet_driver.hpp). This
// layer extends the same discipline to *transport* faults: torn/short
// reads, partial writes, stalls and connection resets injected at the
// two sanctioned syscall helpers in net.cpp (read_frame / write_all).
//
// Determinism argument, mirroring FaultModel's: each fault point keeps
// a per-site invocation counter, and the decision for invocation i at
// site s is splitmix64(seed ^ splitmix64(site-tagged i)) -- a pure
// function of (seed, site, i) with no dependence on wall-clock time or
// thread scheduling. Two runs that drive each site the same number of
// times therefore see the identical fault *sequence* per site; when the
// driver is additionally sequential (one in-flight request), the whole
// run's observable outcome split is reproducible and tools/chaos_soak.py
// asserts exact counter equality across paired runs.
//
// Scoping: compiled only under -DOBLV_CHAOS=ON (OBLV_CHAOS_ENABLED),
// and even then inert until configure() is called -- only oblvd's
// --chaos-seed flag does, so clients and oblv_load sharing net.cpp are
// never faulted. Default builds contain no trace of this layer.
#pragma once

#include <cstdint>

namespace oblivious::daemon::chaos {

// The two sanctioned fault points in net.cpp. wait_readable is
// deliberately NOT a site: idle poll ticks fire at a rate set by the
// scheduler, so counting them would desynchronise the per-site
// invocation counters between otherwise identical runs.
enum class Site : int {
  kReadFrame = 0,  // once per frame read attempt (including the EOF probe)
  kWriteAll = 1,   // once per outbound frame
};
inline constexpr int kSiteCount = 2;

enum class Fault : int {
  kNone = 0,
  kShortRead,   // read site: syscall slices capped at 1 byte for this frame
  kTornWrite,   // write site: send slices capped at 1 byte for this frame
  kStall,       // either site: sleep stall_ms before the I/O proceeds
  kReset,       // either site: fail the I/O as if the peer reset
};

// Per-mille injection rates, sliced out of one uniform draw per
// invocation (so rates compose without extra randomness): a draw in
// [0, short+torn) is a slice fault, [.., +stall) a stall, [.., +reset)
// a reset, the rest clean. Slice faults apply only at the matching
// site; the slots are kept distinct so the same seed gives the same
// classification regardless of which site consumes the draw.
struct ChaosConfig {
  std::uint64_t seed = 0;
  std::uint32_t short_read_per_mille = 0;
  std::uint32_t torn_write_per_mille = 0;
  std::uint32_t stall_per_mille = 0;
  std::uint32_t reset_per_mille = 0;
  std::uint32_t stall_ms = 5;
};

// What the fault point must do for one invocation.
struct Decision {
  Fault fault = Fault::kNone;
  std::uint32_t stall_ms = 0;
};

// Snapshot of lifetime injection totals (also exported as
// daemon.chaos.* counters in the metrics registry).
struct ChaosCounters {
  std::uint64_t read_invocations = 0;
  std::uint64_t write_invocations = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t stalls = 0;
  std::uint64_t resets = 0;
};

// Arms the fault points. Call before serving starts (oblvd does, from
// --chaos-seed); reconfiguring mid-flight is supported but resets the
// per-site counters, forfeiting reproducibility for the current run.
void configure(const ChaosConfig& config);

// Disarms the fault points; next() returns kNone until reconfigured.
void disable();

// True once configure() has armed the layer.
bool enabled();

// Draws the decision for the next invocation of `site`. Thread-safe;
// the per-site sequence of decisions is a pure function of the seed.
Decision next(Site site);

// Lifetime totals since the last configure().
ChaosCounters counters();

}  // namespace oblivious::daemon::chaos
