// Shard-scaling micro-benchmarks (google-benchmark, like bench_perf).
//
// Agent-steps per second of the general rotor-router as a function of
// shard count on the torus scenarios the roadmap budgets against (64² and
// 256², k = 64; 1024², k = 2^16, whose state is out of cache), plus a
// pile-up deployment exercising the batched full-cycle exit path. Every row builds one core::RotorRouter with the
// row's shard count; /0 and /1 both build the one-shard engine (0 is
// clamped to 1), and both names are kept so tools/bench_diff.py history
// lines up with the rows from when /0 was a separate sequential engine.
// Higher rows show the scaling the partition buys on multi-core hosts.
// CI uploads the JSON next to bench_perf's so tools/bench_diff.py flags
// scaling regressions commit over commit.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/rotor_router.hpp"
#include "graph/generators.hpp"

namespace {

std::vector<rr::graph::NodeId> spread_agents(rr::graph::NodeId n,
                                             std::uint32_t k) {
  std::vector<rr::graph::NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<rr::graph::NodeId>(
        static_cast<std::uint64_t>(i) * n / k);
  }
  return agents;
}

// args: {side, k, shards}; shards 0 and 1 are the same one-shard engine.
void BM_ShardedRotorRouterTorus(benchmark::State& state) {
  const auto side = static_cast<rr::graph::NodeId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const auto shards = static_cast<std::uint32_t>(state.range(2));
  rr::graph::Graph g = rr::graph::torus(side, side);
  const auto agents = spread_agents(g.num_nodes(), k);
  rr::core::RotorRouter rr(g, agents, {}, shards);
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
  state.SetLabel("shards=" + std::to_string(rr.num_shards()));
}
BENCHMARK(BM_ShardedRotorRouterTorus)
    ->Args({64, 64, 0})
    ->Args({64, 64, 1})
    ->Args({64, 64, 2})
    ->Args({64, 64, 4})
    ->Args({64, 64, 8})
    ->Args({256, 64, 0})
    ->Args({256, 64, 1})
    ->Args({256, 64, 2})
    ->Args({256, 64, 4})
    ->Args({256, 64, 8})
    ->Args({1024, 1 << 16, 0})
    ->Args({1024, 1 << 16, 1})
    ->Args({1024, 1 << 16, 4});

// All k agents piled on one node: the full-cycle exit batching turns the
// O(k) per-round arrival loop into O(deg), so throughput here tracks the
// distribute_exits fast path rather than memory latency.
void BM_ShardedRotorRouterPileUp(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  rr::graph::Graph g = rr::graph::torus(64, 64);
  const std::vector<rr::graph::NodeId> agents(k, g.num_nodes() / 2);
  rr::core::RotorRouter rr(g, agents, {}, shards);
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
  state.SetLabel("shards=" + std::to_string(rr.num_shards()));
}
BENCHMARK(BM_ShardedRotorRouterPileUp)
    ->Args({4096, 0})
    ->Args({4096, 8});

}  // namespace

BENCHMARK_MAIN();
