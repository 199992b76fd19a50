#include "analysis/sketch/stream_account.hpp"

#include "obs/metrics.hpp"
#include "parallel/packet_driver.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace oblivious {

DemandSource DemandSource::from_span(std::span<const Demand> demands) {
  DemandSource s;
  s.demands_ = demands;
  s.count_ = demands.size();
  return s;
}

DemandSource DemandSource::random_pairs(const Mesh& mesh, std::size_t count,
                                        std::uint64_t seed) {
  OBLV_REQUIRE(mesh.num_nodes() > 0, "cannot draw demands from an empty mesh");
  DemandSource s;
  s.mesh_ = &mesh;
  s.count_ = count;
  s.seed_ = splitmix64(seed);
  return s;
}

namespace {

// Charges each packet straight into the worker's accounting shard and
// drops its path. Streaming stays one packet at a time on the scalar
// loop: buffering a block of paths for the SoA engine would cost about
// 1.4 MB per worker for a default 8192-packet block.
struct StreamSink {
  const Router& router;
  const DemandSource& source;
  LoadAccountant& accountant;
  oblv::Mutex fold_mutex;

  struct Worker final : PacketWorker {
    explicit Worker(StreamSink& s)
        : sink(s), shard(s.accountant, s.fold_mutex) {}
    std::int64_t route(std::size_t i, Rng& rng,
                       RouteScratch& scratch) override {
      const Demand d = sink.source.demand(i);
      route_to(sink.router, d.src, d.dst, rng, scratch, path);
      shard.shard().add_segments(path);
      return sampled_hops(i, path);
    }
    void block_done(std::size_t block, std::size_t /*begin*/,
                    std::size_t /*end*/) override {
      shard.end_block(block);
    }
    void close() override { shard.close(); }

    StreamSink& sink;
    AccountingShard shard;
    SegmentPath path;
  };
};

}  // namespace

StreamAccountResult route_and_account(const Router& router,
                                      const DemandSource& source,
                                      ThreadPool& pool,
                                      const StreamAccountOptions& options,
                                      LoadAccountant& accountant) {
  const std::size_t n = source.size();
  std::size_t block_size = options.block_size;
  if (block_size == 0) block_size = accountant.block_size();
  OBLV_REQUIRE(block_size >= 1, "stream block_size must be >= 1");
  StreamAccountResult result;
  result.packets = n;
  result.blocks = (n + block_size - 1) / block_size;
  if (n == 0) return result;

  // Workers claim BLOCKS of a fixed size (thread-count independent): the
  // block partition is what makes the folded accountant bit-identical
  // for any pool size.
  PacketRun run;
  run.count = n;
  run.options.seed = options.seed;
  run.options.chunk_size = block_size;
  StreamSink sink{router, source, accountant, {}};
  result.seconds = drive_packets(router, &pool, run, sink);
  OBLV_COUNTER_ADD("stream.packets_routed", static_cast<std::int64_t>(n));
  OBLV_STAT_RECORD("stream.block_seconds",
                   result.seconds / static_cast<double>(result.blocks));
  return result;
}

}  // namespace oblivious
