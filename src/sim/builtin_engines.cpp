// Built-in backend registrations for sim::EngineRegistry.
//
// This file is the ONLY construction site of the in-tree engines outside
// of tests: each registration block owns the backend's CLI key, substrate
// requirement, shard capability, and its one factory. Checkpoint restore
// reuses the factory (EngineRegistry::restore), so a guard written here
// applies to both paths. Adding a backend = adding one block here and
// passing the differential gate (README "Adding a backend").

#include <string>
#include <utility>
#include <vector>

#include "analysis/continuous_engine.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "dist/coordinator.hpp"
#include "graph/descriptor.hpp"
#include "graph/substrate.hpp"
#include "sim/registry.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace detail {

namespace {

void fail(std::string* error, const char* message) {
  if (error) *error = message;
}

std::vector<graph::NodeId> agents_of(const EngineConfig& config) {
  return {config.agents.begin(), config.agents.end()};
}

/// Narrows a general pointer field to the ring engines' direction bytes;
/// nullopt if any entry is not a valid ring port (0 = cw, 1 = acw).
std::optional<std::vector<std::uint8_t>> ring_pointers(
    const EngineConfig& config) {
  std::vector<std::uint8_t> out(config.pointers.size());
  for (std::size_t i = 0; i < config.pointers.size(); ++i) {
    if (config.pointers[i] > 1) return std::nullopt;
    out[i] = static_cast<std::uint8_t>(config.pointers[i]);
  }
  return out;
}

void register_rotor(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "rotor",
      .engine_name = "rotor-router",
      .substrate = "any connected graph",
      .summary = "general-graph multi-agent rotor-router (CSR-backed; "
                 "--shards N steps it shard-parallel, bit-equal)",
      .substrate_kinds = {},
      .supports_shards = true,
      .deterministic = true,
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        auto csr = graph::intern_substrate(d, error);
        if (!csr) return nullptr;
        if (!c.pointers.empty() && c.pointers.size() != csr->num_nodes()) {
          fail(error, "pointer field size must match the node count");
          return nullptr;
        }
        // The shard count is an execution choice, not checkpoint state:
        // the same document restores under any shard count.
        return std::make_unique<core::RotorRouter>(
            std::move(*csr), agents_of(c), c.pointers, c.shards, c.pool);
      },
  });
}

void register_ring(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "ring",
      .engine_name = "ring-rotor-router",
      .substrate = "ring only",
      .summary = "ring-specialized rotor-router with Sec. 2.2 visit "
                 "classification (domains/borders)",
      .substrate_kinds = {"ring"},
      .deterministic = true,
      // last_arrival is a per-node agent *count* (periodic on the cycle,
      // so rigid comparison both confirms it and keeps it unchanged);
      // only the round-valued counters advance per period.
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        const auto n = *d.num_nodes();
        auto ptrs = ring_pointers(c);
        if (!ptrs || (!ptrs->empty() && ptrs->size() != n)) {
          fail(error, "ring pointers must be n entries in {0, 1}");
          return nullptr;
        }
        return std::make_unique<core::RingRotorRouter>(n, agents_of(c),
                                                       std::move(*ptrs));
      },
  });
}

void register_lazy(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "lazy",
      .engine_name = "lazy-ring-rotor-router",
      .substrate = "ring only",
      .summary = "domain-dynamics ring engine: a dense kernel for crowded "
                 "stretches, ballistic O(k log k) leaps for spread-out ones, "
                 "switched by measured leap length",
      .substrate_kinds = {"ring"},
      .deterministic = true,
      // One checkpoint layout for both kernels and no policy scalars in
      // it, so confirmation engages whichever kernel is active.
      .cycle_accumulators = {"time", "visits"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        const auto n = *d.num_nodes();
        auto ptrs = ring_pointers(c);
        if (!ptrs || (!ptrs->empty() && ptrs->size() != n)) {
          fail(error, "ring pointers must be n entries in {0, 1}");
          return nullptr;
        }
        return std::make_unique<core::LazyRingRotorRouter>(n, agents_of(c),
                                                           std::move(*ptrs));
      },
  });
}

void register_walks(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "walks",
      .engine_name = "random-walks",
      .substrate = "any connected graph",
      .summary = "k parallel random walks (the stochastic baseline; "
                 "--seed selects the stream)",
      .substrate_kinds = {},
      .supports_shards = false,
      .cycle_accumulators = {},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        auto csr = graph::intern_substrate(d, error);
        if (!csr) return nullptr;
        return std::make_unique<walk::GraphRandomWalks>(std::move(*csr),
                                                        agents_of(c), c.seed);
      },
  });
}

void register_eulerian(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "eulerian",
      .engine_name = "eulerian-circulation",
      .substrate = "any connected graph",
      .summary = "Eulerian token circulation: k tokens advancing one arc "
                 "per round along a fixed Eulerian circuit (O(k)/round)",
      .substrate_kinds = {},
      .supports_shards = false,
      .deterministic = true,
      .cycle_accumulators = {"time", "visits"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        auto csr = graph::intern_substrate(d, error);
        if (!csr) return nullptr;
        return std::make_unique<core::EulerianRotorRouter>(std::move(*csr),
                                                           agents_of(c));
      },
  });
}

void register_ode(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "ode",
      .engine_name = "continuous-domain",
      .substrate = "ring only",
      .summary = "Sec. 2.3 continuous domain-size ODE (RK4, 1 round = "
                 "1.0 model time); convergence-gated, not bit-exact",
      .substrate_kinds = {"ring"},
      .cycle_accumulators = {},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        if (!c.pointers.empty()) {
          fail(error, "the continuous model has no pointer field");
          return nullptr;
        }
        return std::make_unique<analysis::ContinuousDomainEngine>(
            *d.num_nodes(), c.agents);
      },
  });
}

core::DistOptions dist_options(const EngineConfig& c) {
  core::DistOptions o;
  o.workers = c.dist_workers;
  o.spill_batch = c.dist_spill_batch;
  o.noded_path = c.dist_noded;
  return o;
}

void register_dist(EngineRegistry& r) {
  r.add(EngineSpec{
      .name = "dist",
      // Same engine identity as "rotor": the distributed stepper is the
      // same dynamical system writing the same checkpoint field set
      // (bit-identical documents), so its snapshots restore under any
      // rotor-router backend and vice versa. find() resolves
      // "rotor-router" to the earlier "rotor" spec, so plain restores
      // stay sequential; `--engine dist` reaches this one by CLI key.
      .engine_name = "rotor-router",
      .substrate = "any connected graph",
      .summary = "distributed rotor-router: N worker processes over "
                 "AF_UNIX sockets, batched spill comms, bit-equal to "
                 "sequential (--workers N, --noded PATH|threads)",
      .substrate_kinds = {},
      .supports_shards = false,
      .deterministic = true,
      .shares_engine_name = true,
      .cycle_accumulators = {"time", "visits", "exits", "last_visit"},
      .factory = [](const graph::GraphDescriptor& d, const EngineConfig& c,
                    std::string* error) -> std::unique_ptr<Engine> {
        return core::DistributedRotorRouter::create(
            d, agents_of(c), c.pointers, dist_options(c), error);
      },
  });
}

}  // namespace

void register_builtin_engines(EngineRegistry& registry) {
  register_rotor(registry);
  register_ring(registry);
  register_lazy(registry);
  register_walks(registry);
  register_eulerian(registry);
  register_ode(registry);
  register_dist(registry);
}

}  // namespace detail
}  // namespace rr::sim
