// Tests for interned graph substrates (graph/substrate.hpp): one shared
// CSR per descriptor across engines, resumes and threads, weak release,
// streamed rows equal to the generators, and total failure on invalid
// descriptors.

#include "graph/substrate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/rotor_router.hpp"
#include "core/sharded_rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
#include "sim/registry.hpp"
#include "walk/random_walk.hpp"

namespace rr::graph {
namespace {

std::unique_ptr<sim::Engine> create(const std::string& engine,
                                    const GraphDescriptor& d,
                                    std::uint32_t shards = 1) {
  sim::EngineConfig config;
  config.agents = {0, 5, 11};
  config.shards = shards;
  std::string error;
  auto e = sim::EngineRegistry::instance().create(engine, d, config, &error);
  EXPECT_TRUE(e != nullptr) << error;
  return e;
}

const NodeId* rotor_arcs(const sim::Engine& e) {
  if (const auto* r = dynamic_cast<const core::RotorRouter*>(&e)) {
    return r->graph().arcs();
  }
  if (const auto* s = dynamic_cast<const core::ShardedRotorRouter*>(&e)) {
    return s->graph().arcs();
  }
  return dynamic_cast<const walk::GraphRandomWalks&>(e).graph().arcs();
}

TEST(Substrate, EnginesOnOneDescriptorShareOneArcArray) {
  const GraphDescriptor d = GraphDescriptor::torus(9, 7);
  ASSERT_FALSE(substrate_interned(d));
  {
    auto a = create("rotor", d);
    auto b = create("rotor", d);
    auto sharded = create("rotor", d, /*shards=*/2);
    auto walks = create("walks", d);
    ASSERT_TRUE(a && b && sharded && walks);
    EXPECT_TRUE(substrate_interned(d));
    EXPECT_EQ(rotor_arcs(*a), rotor_arcs(*b));
    EXPECT_EQ(rotor_arcs(*a), rotor_arcs(*sharded));
    EXPECT_EQ(rotor_arcs(*a), rotor_arcs(*walks));

    // A resume while an engine is live steps on the same arrays.
    a->run(17);
    auto resumed = sim::restore_checkpoint(
        sim::write_checkpoint(*a, d.text(), sim::CkptFormat::kV2));
    ASSERT_TRUE(resumed != nullptr);
    EXPECT_EQ(rotor_arcs(*resumed), rotor_arcs(*b));
    EXPECT_EQ(resumed->config_hash(), a->config_hash());
  }
  // The table holds weak references: the last engine freed the arrays,
  // and the next create builds the substrate again.
  EXPECT_FALSE(substrate_interned(d));
  auto again = create("rotor", d);
  ASSERT_TRUE(again != nullptr);
  EXPECT_TRUE(substrate_interned(d));
  // Equal descriptors with different text are separate substrates.
  const auto other = GraphDescriptor::parse("torus 9 07");
  ASSERT_TRUE(other.has_value());
  EXPECT_FALSE(substrate_interned(*other));
}

TEST(Substrate, StreamedRingAndTorusMatchGenerators) {
  struct Case {
    GraphDescriptor d;
    Graph g;
  };
  const Case cases[] = {
      {GraphDescriptor::ring(3), ring(3)},
      {GraphDescriptor::ring(8), ring(8)},
      {GraphDescriptor::torus(3, 3), torus(3, 3)},
      {GraphDescriptor::torus(3, 5), torus(3, 5)},
      {GraphDescriptor::torus(7, 4), torus(7, 4)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.d.text());
    const CsrGraph expected(c.g);
    std::string error;
    const auto csr = intern_substrate(c.d, &error);
    ASSERT_TRUE(csr.has_value()) << error;
    ASSERT_EQ(csr->num_nodes(), expected.num_nodes());
    ASSERT_EQ(csr->num_arcs(), expected.num_arcs());
    for (NodeId v = 0; v < expected.num_nodes(); ++v) {
      ASSERT_EQ(csr->row_offset(v), expected.row_offset(v)) << "v=" << v;
      ASSERT_EQ(csr->degree(v), expected.degree(v)) << "v=" << v;
      for (std::uint32_t p = 0; p < expected.degree(v); ++p) {
        ASSERT_EQ(csr->neighbor(v, p), expected.neighbor(v, p))
            << "v=" << v << " p=" << p;
      }
      for (const NodeId u : expected.neighbors(v)) {
        ASSERT_EQ(csr->port_to(v, u), expected.port_to(v, u))
            << "v=" << v << " u=" << u;
      }
    }
  }
}

TEST(Substrate, BuiltKindsMatchTheirGraph) {
  // Kinds without a streamed source go through GraphDescriptor::build.
  for (const char* text : {"lollipop 12 5", "random-regular 30 3 7",
                           "hypercube 4", "tree 10"}) {
    SCOPED_TRACE(text);
    const auto d = GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value());
    const CsrGraph expected(*d->build());
    const auto csr = intern_substrate(*d);
    ASSERT_TRUE(csr.has_value());
    ASSERT_EQ(csr->num_arcs(), expected.num_arcs());
    for (NodeId v = 0; v < expected.num_nodes(); ++v) {
      for (std::uint32_t p = 0; p < expected.degree(v); ++p) {
        ASSERT_EQ(csr->neighbor(v, p), expected.neighbor(v, p));
      }
    }
  }
}

TEST(Substrate, InvalidDescriptorsFailWithoutAbort) {
  // Grammatical descriptors whose parameters are invalid or over the
  // in-memory build cap.
  for (const char* text : {"ring 2", "torus 2 9", "torus 65536 65536",
                           "random-regular 9 3 1", "erdos-renyi 64 0.01 3"}) {
    SCOPED_TRACE(text);
    const auto d = GraphDescriptor::parse(text);
    ASSERT_TRUE(d.has_value());
    std::string error;
    EXPECT_FALSE(intern_substrate(*d, &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(substrate_interned(*d));
    for (const char* engine : {"rotor", "eulerian", "walks"}) {
      sim::EngineConfig config;
      config.agents = {0};
      error.clear();
      EXPECT_EQ(sim::EngineRegistry::instance().create(engine, *d, config,
                                                       &error),
                nullptr);
      EXPECT_FALSE(error.empty());
    }
  }
  // The same descriptors in a checkpoint header restore to nullptr.
  core::RotorRouter engine(ring(8), {0});
  const std::string good =
      sim::write_checkpoint(engine, "ring 8", sim::CkptFormat::kV1);
  std::string bad = good;
  bad.replace(bad.find("graph=ring 8"), 12, "graph=ring 2");
  ASSERT_NE(sim::restore_checkpoint(good), nullptr);
  EXPECT_EQ(sim::restore_checkpoint(bad), nullptr);
  const auto parsed = sim::parse_checkpoint(good);
  ASSERT_TRUE(parsed.has_value());
  std::string error;
  EXPECT_EQ(sim::EngineRegistry::instance().restore(
                "rotor-router", *GraphDescriptor::parse("torus 2 9"),
                parsed->state, {}, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(Substrate, ConcurrentInternsShareOneSubstrate) {
  const GraphDescriptor d = GraphDescriptor::torus(96, 80);
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::optional<CsrGraph>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[i] = intern_substrate(d);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(got[i].has_value());
    EXPECT_EQ(got[i]->arcs(), got[0]->arcs()) << "thread " << i;
  }
}

TEST(Substrate, SharedSubstrateCheckpointMatchesGraphConstructor) {
  const GraphDescriptor d = GraphDescriptor::torus(12, 10);
  auto shared = create("rotor", d);
  ASSERT_TRUE(shared != nullptr);
  core::RotorRouter owned(torus(12, 10), {0, 5, 11});
  shared->run(211);
  owned.run(211);
  EXPECT_EQ(sim::write_checkpoint(*shared, d.text(), sim::CkptFormat::kV2),
            sim::write_checkpoint(owned, d.text(), sim::CkptFormat::kV2));
}

}  // namespace
}  // namespace rr::graph
