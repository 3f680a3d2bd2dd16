// Differential gate for shard-parallel stepping: a RotorRouter with N
// shards must be bit-equal — per-round config_hash, visits, first-visit
// rounds, coverage, arc traversals, agent positions — to the one-shard
// engine for every tested shard count ({1, 2, 3, 7, 8}), across
// topologies, adversarial delayed schedules, pool thread counts, and the
// save→load→continue lane (including restarts that change the shard
// count mid-run: checkpoints do not depend on the shard count).
//
// One torus is sized past core::kCacheResidentStateBytes so the
// staged-gather scan runs too; every other topology stays under it.
//
// RR_TEST_POOL_THREADS narrows the thread matrix to one value; the ASan
// and TSan CI jobs re-run this suite across the matrix that way.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/rotor_router.hpp"
#include "differential.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"

namespace rr::testing {
namespace {

constexpr std::uint32_t kShardCounts[] = {1, 2, 3, 7, 8};

struct Topology {
  const char* name;
  graph::Graph graph;
};

std::vector<Topology> topologies() {
  std::vector<Topology> topo;
  topo.push_back({"ring(48)", graph::ring(48)});
  topo.push_back({"torus(8x9)", graph::torus(8, 9)});
  topo.push_back({"grid(7x5)", graph::grid(7, 5)});
  topo.push_back({"clique(13)", graph::clique(13)});
  topo.push_back({"star(21)", graph::star(21)});
  topo.push_back({"binary_tree(30)", graph::binary_tree(30)});
  topo.push_back({"lollipop(26,9)", graph::lollipop(26, 9)});
  topo.push_back({"random_regular(36,4)", graph::random_regular(36, 4, 11)});
  return topo;
}

// Random agents / pointers / delay schedule for an arbitrary graph; the
// delay kinds are RingScenario's (pure functions of (v, t, present), as
// the harness requires).
struct GraphScenario {
  std::vector<graph::NodeId> agents;
  std::vector<std::uint32_t> pointers;
  RingScenario delays;  // only delay_kind/delay_seed are used
  std::uint64_t rounds = 0;

  static GraphScenario random(const graph::Graph& g, Rng& rng) {
    GraphScenario sc;
    const graph::NodeId n = g.num_nodes();
    const std::uint32_t k = 1 + rng.bounded(24);
    sc.agents.resize(k);
    for (auto& a : sc.agents) a = rng.bounded(n);
    if (rng.bounded(2) == 0) {
      sc.pointers.resize(n);
      for (graph::NodeId v = 0; v < n; ++v) {
        sc.pointers[v] = rng.bounded(g.degree(v));
      }
    }
    sc.delays.delay_kind = static_cast<int>(rng.bounded(4));
    sc.delays.delay_seed = rng();
    sc.rounds = 24 + rng.bounded(2 * n);
    return sc;
  }
};

TEST(ShardedRotor, BitEqualToSequentialAcrossShardCountsAndTopologies) {
  Rng rng(0x5AAD5ULL);
  for (const Topology& topo : topologies()) {
    for (int config = 0; config < 12; ++config) {
      const GraphScenario sc = GraphScenario::random(topo.graph, rng);
      SCOPED_TRACE(::testing::Message()
                   << topo.name << " k=" << sc.agents.size() << " delay_kind="
                   << sc.delays.delay_kind << " rounds=" << sc.rounds);
      core::RotorRouter reference(topo.graph, sc.agents, sc.pointers);
      std::vector<std::unique_ptr<core::RotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t shards : kShardCounts) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            topo.graph, sc.agents, sc.pointers, shards));
        engines.push_back(candidates.back().get());
      }
      const Mismatch m =
          run_lockstep_delayed(engines, sc.rounds, sc.delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

// Pool thread counts under test: {1, 2, 4}, or the one value in
// RR_TEST_POOL_THREADS (the sanitizer CI jobs sweep t = 1, 2, 4 that way).
std::vector<unsigned> pool_thread_counts() {
  if (const char* env = std::getenv("RR_TEST_POOL_THREADS")) {
    const unsigned t = static_cast<unsigned>(std::atoi(env));
    if (t > 0) return {t};
  }
  return {1, 2, 4};
}

TEST(ShardedRotor, ThreadCountNeverChangesTheTrajectory) {
  // Pool threads are an execution resource, shards a partition choice;
  // neither may leak into the dynamics.
  const graph::Graph g = graph::torus(9, 8);
  Rng rng(0x7EADC07ULL);
  for (unsigned threads : pool_thread_counts()) {
    sim::ThreadPool pool(threads);
    for (int config = 0; config < 10; ++config) {
      const GraphScenario sc = GraphScenario::random(g, rng);
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " k=" << sc.agents.size()
                   << " delay_kind=" << sc.delays.delay_kind);
      core::RotorRouter reference(g, sc.agents, sc.pointers);
      std::vector<std::unique_ptr<core::RotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t shards : {2u, 3u, 8u}) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            g, sc.agents, sc.pointers, shards, &pool));
        engines.push_back(candidates.back().get());
      }
      const Mismatch m =
          run_lockstep_delayed(engines, sc.rounds, sc.delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(ShardedRotor, OutOfCacheTorusBitEqualAcrossShardCountsAndThreads) {
  // Every topology above keeps its state under
  // core::kCacheResidentStateBytes; this torus is past it, so both engines
  // take the staged-gather scan, with thousands of occupied rows per shard.
  const graph::Graph g = out_of_cache_torus();
  Rng rng(0x0CAC4EULL);
  for (unsigned threads : pool_thread_counts()) {
    sim::ThreadPool pool(threads);
    for (int kind = 0; kind < 4; ++kind) {
      RingScenario delays;
      delays.n = g.num_nodes();
      delays.delay_kind = kind;
      delays.delay_seed = rng();
      const std::vector<graph::NodeId> agents =
          random_agents(g.num_nodes(), 4096, rng);
      std::vector<std::uint32_t> pointers(g.num_nodes());
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        pointers[v] = rng.bounded(g.degree(v));
      }
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " delay_kind=" << kind);
      core::RotorRouter reference(g, agents, pointers);
      core::RotorRouter sharded(g, agents, pointers, 4, &pool);
      ASSERT_TRUE(reference.pipelined_scan());
      ASSERT_TRUE(sharded.pipelined_scan());
      const Mismatch m =
          run_lockstep_delayed(reference, sharded, 48, delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      EXPECT_EQ(reference.agent_positions(), sharded.agent_positions());
      EXPECT_EQ(reference.occupied_count(), sharded.occupied_count());
    }
  }
}

TEST(ShardedRotor, SharedRunnerPoolStepsInlineInsideTrials) {
  // A sharded engine drawing from the Runner's pool, stepped *inside* a
  // Runner trial: the nesting rule collapses shard dispatch to inline
  // execution — same trajectory, no deadlock, no oversubscription.
  const graph::Graph g = graph::torus(6, 6);
  const std::vector<graph::NodeId> agents{0, 7, 20};
  core::RotorRouter reference(g, agents);
  reference.run(64);
  sim::Runner runner(4);
  std::vector<std::uint64_t> hashes(8);
  runner.for_each(8, [&](std::uint64_t i) {
    core::RotorRouter sharded(g, agents, {}, /*shards=*/4, &runner.pool());
    sharded.run(64);
    hashes[i] = sharded.config_hash();
  });
  for (std::uint64_t h : hashes) EXPECT_EQ(h, reference.config_hash());
}

TEST(ShardedRotor, CheckpointRestartAcrossShardCounts) {
  // save → load → continue through the engine-generic checkpoint, with
  // the restart *changing* the shard count (including to/from the
  // sequential engine): every observable must continue bit-equal.
  const graph::GraphDescriptor descriptor = graph::GraphDescriptor::torus(7, 9);
  const graph::Graph g = *descriptor.build();
  Rng rng(0xC4EC4ULL);
  for (std::uint32_t shards_before : {1u, 3u, 8u}) {
    for (std::uint32_t shards_after : {1u, 2u, 7u}) {
      const GraphScenario sc = GraphScenario::random(g, rng);
      const std::uint64_t restart = sc.rounds / 2;
      SCOPED_TRACE(::testing::Message()
                   << "shards " << shards_before << " -> " << shards_after
                   << " restart@" << restart << " k=" << sc.agents.size());
      core::RotorRouter reference(g, sc.agents, sc.pointers);
      std::unique_ptr<sim::Engine> candidate =
          std::make_unique<core::RotorRouter>(g, sc.agents, sc.pointers,
                                              shards_before);
      const sim::DelayFn delay = sc.delays.delay();
      for (std::uint64_t t = 0; t < sc.rounds; ++t) {
        if (t == restart) {
          // The documents do not depend on the shard count, in either
          // wire format.
          for (const auto format : {sim::CkptFormat::kV1,
                                    sim::CkptFormat::kV2}) {
            ASSERT_EQ(
                sim::write_checkpoint(reference, descriptor.text(), format),
                sim::write_checkpoint(*candidate, descriptor.text(), format));
          }
          const std::string text =
              sim::write_checkpoint(*candidate, descriptor.text());
          const auto parsed = sim::parse_checkpoint(text);
          ASSERT_TRUE(parsed.has_value());
          EXPECT_EQ(parsed->engine, "rotor-router");
          sim::EngineConfig config;
          config.shards = shards_after;
          candidate = sim::restore_checkpoint(*parsed, config);
          ASSERT_NE(candidate, nullptr);
          auto* restored = dynamic_cast<core::RotorRouter*>(candidate.get());
          ASSERT_NE(restored, nullptr);
          EXPECT_EQ(restored->num_shards(), shards_after);
          const Mismatch m = compare_engines(reference, *candidate);
          ASSERT_TRUE(m.ok) << "after restore: " << m.detail;
        }
        reference.step_delayed(delay);
        candidate->step_delayed(delay);
        const Mismatch m = compare_engines(reference, *candidate);
        ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      }
    }
  }
}

TEST(ShardedRotor, SequentialCheckpointRestoresIntoShardedEngine) {
  // The reverse direction of interchangeability: a checkpoint written by
  // the *sequential* engine restores into a sharded one.
  const graph::GraphDescriptor descriptor = graph::GraphDescriptor::grid(6, 8);
  const graph::Graph g = *descriptor.build();
  const std::vector<graph::NodeId> agents{1, 5, 17, 17, 40};
  core::RotorRouter sequential(g, agents);
  sequential.run(37);
  const std::string text = sim::write_checkpoint(sequential, descriptor.text());
  const auto parsed = sim::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  sim::EngineConfig config;
  config.shards = 5;
  auto sharded = sim::restore_checkpoint(*parsed, config);
  ASSERT_NE(sharded, nullptr);
  {
    const Mismatch m = compare_engines(sequential, *sharded);
    ASSERT_TRUE(m.ok) << m.detail;
  }
  sequential.run(41);
  sharded->run(41);
  const Mismatch m = compare_engines(sequential, *sharded);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
}

TEST(ShardedRotor, ArcTraversalsAndAgentPositionsMatchAcrossShardCounts) {
  // compare_engines reads the sim::Engine observables; the rotor-only
  // accessors (arc_traversals over the initial pointers and exit counts,
  // agent_positions over every shard's occupied list) are checked here.
  Rng rng(0xA2C7ULL);
  for (const Topology& topo : topologies()) {
    const GraphScenario sc = GraphScenario::random(topo.graph, rng);
    SCOPED_TRACE(::testing::Message()
                 << topo.name << " k=" << sc.agents.size() << " delay_kind="
                 << sc.delays.delay_kind);
    core::RotorRouter one(topo.graph, sc.agents, sc.pointers);
    core::RotorRouter four(topo.graph, sc.agents, sc.pointers, /*shards=*/4);
    ASSERT_EQ(one.num_shards(), 1u);
    ASSERT_EQ(four.num_shards(), 4u);
    const sim::DelayFn delay = sc.delays.delay();
    for (std::uint64_t t = 0; t < sc.rounds; ++t) {
      one.step_delayed(delay);
      four.step_delayed(delay);
      ASSERT_EQ(one.agent_positions(), four.agent_positions()) << "t " << t;
      ASSERT_EQ(one.occupied_count(), four.occupied_count()) << "t " << t;
      for (graph::NodeId v = 0; v < one.num_nodes(); ++v) {
        for (std::uint32_t p = 0; p < one.graph().degree(v); ++p) {
          ASSERT_EQ(one.arc_traversals(v, p), four.arc_traversals(v, p))
              << "t " << t << " arc (" << v << ", " << p << ")";
        }
      }
    }
  }
}

TEST(ShardedRotor, PileUpDeploymentsMatchAcrossShards) {
  // All-on-one deployments exercise the batched full-cycle exit path
  // (distribute_exits) and the spill accumulation under pile-ups.
  for (const Topology& topo : topologies()) {
    const graph::NodeId n = topo.graph.num_nodes();
    for (std::uint32_t k : {7u, 64u, 257u}) {
      SCOPED_TRACE(::testing::Message() << topo.name << " k=" << k);
      const std::vector<graph::NodeId> agents(k, n / 2);
      core::RotorRouter reference(topo.graph, agents);
      std::vector<std::unique_ptr<core::RotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t shards : kShardCounts) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            topo.graph, agents, std::vector<std::uint32_t>{}, shards));
        engines.push_back(candidates.back().get());
      }
      const Mismatch m = run_lockstep(reference, *engines[1], 0);
      ASSERT_TRUE(m.ok);
      const Mismatch all = run_lockstep_delayed(
          engines, 3 * static_cast<std::uint64_t>(n),
          [](graph::NodeId, std::uint64_t, std::uint32_t) { return 0u; });
      ASSERT_TRUE(all.ok) << "round " << all.round << ": " << all.detail;
      // The stop-at-cover loop lands on the sequential cover round.
      core::RotorRouter seq_cover(topo.graph, agents);
      core::RotorRouter sharded_cover(topo.graph, agents, {}, /*shards=*/4);
      const std::uint64_t cover = seq_cover.run_until_covered(1u << 20);
      ASSERT_NE(cover, sim::kNotCovered);
      EXPECT_EQ(sharded_cover.run_until_covered(1u << 20), cover);
    }
  }
}

}  // namespace
}  // namespace rr::testing
