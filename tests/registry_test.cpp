// Tests for sim::EngineRegistry: the sole engine-construction path.
// Lookups and construction are total — unknown names, duplicate
// registrations, substrate mismatches, and malformed configs all fail as
// values (nullptr/false + diagnostic), never as aborts.

#include "sim/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "sim/checkpoint.hpp"

namespace rr::sim {
namespace {

TEST(EngineRegistry, ListsAllSixBackendSpecs) {
  const auto specs = EngineRegistry::instance().list();
  ASSERT_EQ(specs.size(), 6u);  // sharded rides on "rotor" via --shards
  std::set<std::string> names, engine_names;
  bool any_shards = false;
  for (const auto* spec : specs) {
    EXPECT_FALSE(spec->summary.empty()) << spec->name;
    EXPECT_FALSE(spec->substrate.empty()) << spec->name;
    names.insert(spec->name);
    engine_names.insert(spec->engine_name);
    any_shards = any_shards || spec->supports_shards;
  }
  EXPECT_EQ(names.size(), 6u);
  EXPECT_EQ(engine_names.size(), 6u);
  EXPECT_TRUE(any_shards);
  for (const char* name :
       {"rotor", "ring", "lazy", "walks", "eulerian", "ode"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

TEST(EngineRegistry, FindMatchesCliKeyAndEngineName) {
  const auto& r = EngineRegistry::instance();
  EXPECT_EQ(r.find("rotor"), r.find("rotor-router"));
  EXPECT_EQ(r.find("ode"), r.find("continuous-domain"));
  EXPECT_EQ(r.find("eulerian"), r.find("eulerian-circulation"));
  EXPECT_EQ(r.find("warp-drive"), nullptr);
}

TEST(EngineRegistry, UnknownNameFailsCleanly) {
  std::string error;
  EngineConfig config;
  config.agents = {0};
  auto engine = EngineRegistry::instance().create("warp-drive", "ring 16",
                                                  config, &error);
  EXPECT_EQ(engine, nullptr);
  EXPECT_NE(error.find("unknown engine"), std::string::npos) << error;
}

TEST(EngineRegistry, DuplicateRegistrationIsRejected) {
  // A fresh registry: second add under either colliding key fails and
  // leaves the table unchanged.
  EngineRegistry r;
  EngineSpec spec;
  spec.name = "toy";
  spec.engine_name = "toy-engine";
  spec.factory = [](const graph::GraphDescriptor&, const EngineConfig&,
                    std::string*) -> std::unique_ptr<Engine> {
    return nullptr;
  };
  EXPECT_TRUE(r.add(spec));
  EXPECT_FALSE(r.add(spec));  // same name
  EngineSpec cross = spec;
  cross.name = "toy-engine";  // collides with the other key space
  cross.engine_name = "toy2";
  EXPECT_FALSE(r.add(cross));
  EngineSpec same_engine = spec;
  same_engine.name = "toy3";  // new key, engine_name already registered
  EXPECT_FALSE(r.add(same_engine));
  EXPECT_EQ(r.list().size(), 1u);

  // The global instance rejects re-registration of a built-in the same way.
  EngineSpec rotor_again = spec;
  rotor_again.name = "rotor";
  rotor_again.engine_name = "rotor-router-2";
  EXPECT_FALSE(EngineRegistry::instance().add(rotor_again));
}

TEST(EngineRegistry, IncompleteSpecIsRejected) {
  EngineRegistry r;
  EngineSpec no_factory;
  no_factory.name = "x";
  no_factory.engine_name = "x-engine";
  EXPECT_FALSE(r.add(no_factory));
  EXPECT_TRUE(r.list().empty());
}

TEST(EngineRegistry, SubstrateMismatchFailsCleanly) {
  const auto& r = EngineRegistry::instance();
  EngineConfig config;
  config.agents = {0};
  for (const char* ring_only : {"ring", "lazy", "ode"}) {
    std::string error;
    auto engine = r.create(ring_only, "torus 4 4", config, &error);
    EXPECT_EQ(engine, nullptr) << ring_only;
    EXPECT_NE(error.find("needs"), std::string::npos) << error;
  }
  // Restore checks the same requirement (a crafted checkpoint header must
  // not push a ring engine onto a torus).
  EXPECT_EQ(restore_checkpoint(
                "rr-ckpt v1 engine=continuous-domain graph=torus 4 4\nend\n"),
            nullptr);
}

TEST(EngineRegistry, MalformedConfigFailsCleanly) {
  const auto& r = EngineRegistry::instance();
  std::string error;
  EngineConfig config;  // no agents
  EXPECT_EQ(r.create("rotor", "ring 16", config, &error), nullptr);
  EXPECT_NE(error.find("agents"), std::string::npos) << error;

  config.agents = {99};  // out of range
  EXPECT_EQ(r.create("rotor", "ring 16", config, &error), nullptr);

  config.agents = {0};
  EXPECT_EQ(r.create("rotor", "moebius 16", config, &error), nullptr);
  EXPECT_EQ(r.create("rotor", "ring 2", config, &error), nullptr);

  config.pointers = {0, 1, 2};  // not a ring port field of size n
  EXPECT_EQ(r.create("ring", "ring 16", config, &error), nullptr);
  config.pointers.assign(16, 2);  // right size, bad direction values
  EXPECT_EQ(r.create("ring", "ring 16", config, &error), nullptr);
}

TEST(EngineRegistry, CreatesEveryBackendOnItsSubstrate) {
  const auto& r = EngineRegistry::instance();
  struct Case {
    const char* name;
    const char* descriptor;
  };
  const Case cases[] = {
      {"rotor", "torus 6 6"},   {"ring", "ring 24"}, {"lazy", "ring 24"},
      {"walks", "torus 6 6"},   {"eulerian", "clique 8"},
      {"ode", "ring 24"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EngineConfig config;
    config.agents = {0, 3};
    std::string error;
    auto engine = r.create(c.name, c.descriptor, config, &error);
    ASSERT_NE(engine, nullptr) << error;
    EXPECT_EQ(std::string(engine->engine_name()),
              r.find(c.name)->engine_name);
    EXPECT_EQ(engine->num_agents(), 2u);
    engine->run(10);
    EXPECT_EQ(engine->time(), 10u);
  }
}

TEST(EngineRegistry, ShardRequestSelectsShardParallelStepper) {
  const auto& r = EngineRegistry::instance();
  EngineConfig config;
  config.agents = {0, 7};
  config.shards = 4;
  std::string error;
  auto engine = r.create("rotor", "torus 6 6", config, &error);
  ASSERT_NE(engine, nullptr) << error;
  // Interchangeable checkpoints: one engine type and engine_name for
  // every shard count; the request only sets how many shards it steps.
  EXPECT_EQ(std::string(engine->engine_name()), "rotor-router");
  const auto* rotor = dynamic_cast<core::RotorRouter*>(engine.get());
  ASSERT_NE(rotor, nullptr);
  EXPECT_EQ(rotor->num_shards(), 4u);

  // Non-shard-capable engines ignore the request (callers warn).
  auto ring = r.create("ring", "ring 16", config, &error);
  ASSERT_NE(ring, nullptr) << error;
  EXPECT_EQ(std::string(ring->engine_name()), "ring-rotor-router");
}

TEST(EngineRegistry, RestoreResolvesByEngineName) {
  const auto& r = EngineRegistry::instance();
  EngineConfig config;
  config.agents = {0, 5};
  auto engine = r.create("eulerian", "torus 5 5", config);
  ASSERT_NE(engine, nullptr);
  engine->run(37);
  const std::string text = write_checkpoint(*engine, "torus 5 5");
  auto restored = restore_checkpoint(text);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(std::string(restored->engine_name()), "eulerian-circulation");
  EXPECT_EQ(restored->time(), 37u);
  EXPECT_EQ(restored->config_hash(), engine->config_hash());
}

TEST(EngineRegistry, RestoreIsFactoryPlusStateBody) {
  // A spec carries one factory and no restore hook: restore() runs that
  // factory on a placeholder agent with the caller's execution config,
  // then writes the state body into the engine.
  EngineRegistry r;
  int calls = 0;
  EngineConfig seen;
  EngineSpec spec;
  spec.name = "toy";
  spec.engine_name = "toy-engine";
  spec.substrate_kinds = {"ring"};
  spec.factory = [&](const graph::GraphDescriptor& d, const EngineConfig& c,
                     std::string*) -> std::unique_ptr<Engine> {
    ++calls;
    seen = c;
    return std::make_unique<core::RingRotorRouter>(*d.num_nodes(), c.agents);
  };
  ASSERT_TRUE(r.add(spec));

  core::RingRotorRouter original(16, {0, 5, 11});
  original.run(29);
  const auto parsed = parse_checkpoint(write_checkpoint(original, "ring 16"));
  ASSERT_TRUE(parsed.has_value());
  EngineConfig config;
  config.agents = {3, 4};  // ignored: the state body decides the agents
  config.pointers.assign(16, 1);
  config.seed = 7;
  std::string error;
  auto restored = r.restore("toy", *graph::GraphDescriptor::parse("ring 16"),
                            parsed->state, config, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.agents, std::vector<NodeId>{0});
  EXPECT_TRUE(seen.pointers.empty());
  EXPECT_EQ(seen.seed, 7u);
  EXPECT_EQ(restored->time(), 29u);
  EXPECT_EQ(restored->config_hash(), original.config_hash());

  // The factory's substrate check guards restore too.
  EXPECT_EQ(r.restore("toy", *graph::GraphDescriptor::parse("torus 4 4"),
                      parsed->state, config, &error),
            nullptr);
  EXPECT_NE(error.find("needs"), std::string::npos) << error;
  EXPECT_EQ(calls, 1);
}

// Every built-in backend: create, write v2, restore through the registry,
// re-serialize byte-identically.
class BuiltinRestore : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const auto* spec : EngineRegistry::instance().list()) {
    names.push_back(spec->name);
  }
  return names;
}

TEST_P(BuiltinRestore, V2RoundTripIsByteIdentical) {
  const auto& r = EngineRegistry::instance();
  const EngineSpec* spec = r.find(GetParam());
  ASSERT_NE(spec, nullptr);
  const std::string descriptor =
      spec->substrate_kinds.empty() ? "torus 6 6" : "ring 24";
  const auto d = graph::GraphDescriptor::parse(descriptor);
  EngineConfig config;
  config.agents = {0, 3, 3, 17};
  config.seed = 11;
  std::string error;
  auto engine = r.create(spec->name, *d, config, &error);
  ASSERT_NE(engine, nullptr) << error;
  engine->run(41);
  const std::string text =
      write_checkpoint(*engine, descriptor, CkptFormat::kV2);
  const auto parsed = parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());

  std::vector<std::uint32_t> shard_counts{1};
  if (spec->supports_shards) shard_counts.push_back(4);
  for (const std::uint32_t shards : shard_counts) {
    SCOPED_TRACE(shards);
    EngineConfig exec;
    exec.shards = shards;
    auto restored = r.restore(spec->name, *d, parsed->state, exec, &error);
    ASSERT_NE(restored, nullptr) << error;
    if (shards > 1) {
      const auto* rotor = dynamic_cast<core::RotorRouter*>(restored.get());
      ASSERT_NE(rotor, nullptr);
      EXPECT_EQ(rotor->num_shards(), shards);
    }
    EXPECT_EQ(write_checkpoint(*restored, descriptor, CkptFormat::kV2), text);
  }
}

INSTANTIATE_TEST_SUITE_P(EngineRegistry, BuiltinRestore,
                         ::testing::ValuesIn(builtin_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace rr::sim
