#include "parallel/route_batch.hpp"

#include <type_traits>

namespace oblivious {

namespace {

// Stores packet i's path in out[i].
template <typename PathT>
struct StoreSink {
  const Router& router;
  std::span<const Demand> demands;
  std::vector<PathT>& out;

  struct Worker final : PacketWorker {
    explicit Worker(StoreSink& s) : sink(s) {}
    std::int64_t route(std::size_t i, Rng& rng,
                       RouteScratch& scratch) override {
      const Demand& d = sink.demands[i];
      route_to(sink.router, d.src, d.dst, rng, scratch, sink.out[i]);
      check_routed(sink.out[i], d);
      return sampled_hops(i, sink.out[i]);
    }
    StoreSink& sink;
  };
};

template <typename PathT>
void run_batch(const Router& router, std::span<const Demand> demands,
               ThreadPool& pool, const RouteBatchOptions& options,
               std::vector<PathT>& out) {
  out.resize(demands.size());
  PacketRun run;
  run.count = demands.size();
  run.demands = demands;
  if constexpr (std::is_same_v<PathT, SegmentPath>) run.segments = out;
  run.options = options;
  StoreSink<PathT> sink{router, demands, out};
  drive_packets(router, &pool, run, sink);
}

}  // namespace

void route_batch(const Router& router, std::span<const Demand> demands,
                 ThreadPool& pool, const RouteBatchOptions& options,
                 std::vector<SegmentPath>& out) {
  run_batch(router, demands, pool, options, out);
}

void route_batch_paths(const Router& router, std::span<const Demand> demands,
                       ThreadPool& pool, const RouteBatchOptions& options,
                       std::vector<Path>& out) {
  run_batch(router, demands, pool, options, out);
}

}  // namespace oblivious
