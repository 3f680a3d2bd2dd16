#include "core/sharded_rotor_router.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/rotor_state_io.hpp"
#include "graph/substrate.hpp"

namespace rr::core {

using graph::NodeId;
using graph::NodeState;

namespace {

std::uint32_t default_shards(std::uint32_t shards, const sim::ThreadPool* pool) {
  if (shards > 0) return shards;
  if (pool) return pool->num_threads();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

}  // namespace

ShardedRotorRouter::ShardedRotorRouter(graph::CsrGraph csr,
                                       const std::vector<NodeId>& agents,
                                       std::vector<std::uint32_t> pointers,
                                       std::uint32_t shards,
                                       sim::ThreadPool* pool)
    : csr_(std::move(csr)),
      part_(csr_, default_shards(shards, pool)),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(csr_.num_nodes()),
      stats_(csr_.num_nodes()),
      shards_(part_.num_shards()) {
  for (std::uint32_t s = 0; s < part_.num_shards(); ++s) {
    shards_[s].spill.assign(part_.frontier(s).size(), 0);
    shards_[s].spill_touched.resize(part_.num_shards());
  }
  covered_ = init_rotor_nodes(
      csr_, agents, pointers, node_, initial_pointers_, stats_,
      [&](NodeId v) { shards_[part_.owner(v)].occupied.push_back(v); });
  if (part_.num_shards() > 1 && !pool) {
    const unsigned hw = std::thread::hardware_concurrency();
    owned_pool_ = std::make_unique<sim::ThreadPool>(
        std::min<unsigned>(part_.num_shards(), hw ? hw : 1));
    pool = owned_pool_.get();
  }
  pool_ = pool;
}

ShardedRotorRouter::ShardedRotorRouter(const graph::Graph& g,
                                       const std::vector<NodeId>& agents,
                                       std::vector<std::uint32_t> pointers,
                                       std::uint32_t shards,
                                       sim::ThreadPool* pool)
    : ShardedRotorRouter(graph::connected_csr(g), agents, std::move(pointers),
                         shards, pool) {}

void ShardedRotorRouter::commit_arrival(Shard& sh, NodeId u, std::uint32_t a) {
  NodeState& nu = node_[u];
  if (nu.count == 0) sh.occupied.push_back(u);
  if (commit_node_arrival(nu, stats_[u], time_, a)) ++sh.newly_covered;
}

void ShardedRotorRouter::commit_shard(std::uint32_t d) {
  Shard& sh = shards_[d];
  // Drop rows fully vacated this round (same membership invariant as the
  // sequential engine: occupied holds exactly the owned rows with agents).
  std::size_t w = 0;
  for (std::size_t i = 0; i < sh.occupied.size(); ++i) {
    if (node_[sh.occupied[i]].count > 0) sh.occupied[w++] = sh.occupied[i];
  }
  sh.occupied.resize(w);

  // Own in-shard arrivals, in scan order.
  const std::size_t touched_n = sh.touched.size();
  for (std::size_t i = 0; i < touched_n; ++i) {
    if (i + 4 < touched_n) prefetch_ro(&stats_[sh.touched[i + 4]]);
    const NodeId u = sh.touched[i];
    const std::uint32_t a = node_[u].arrivals;
    if (a == 0) continue;  // duplicate touch already committed
    node_[u].arrivals = 0;
    commit_arrival(sh, u, a);
  }
  sh.touched.clear();

  // Cross-shard spills destined for this shard, source shards in
  // ascending order: the commit order is a pure function of the
  // configuration, independent of which thread runs which shard. The
  // sources bucketed their touched slots per destination at deposit
  // time, so this reads exactly the entries addressed to shard d.
  for (std::uint32_t s = 0; s < part_.num_shards(); ++s) {
    if (s == d) continue;
    Shard& src = shards_[s];
    const auto& fr = part_.frontier(s);
    for (const std::uint32_t slot : src.spill_touched[d]) {
      const std::uint32_t a = src.spill[slot];
      if (a == 0) continue;
      src.spill[slot] = 0;  // this shard owns fr[slot]: no committer races
      commit_arrival(sh, fr[slot], a);
    }
  }
}

std::uint64_t ShardedRotorRouter::config_hash() const {
  return rotor_config_hash(node_);
}

void ShardedRotorRouter::serialize_state(sim::StateWriter& out) const {
  serialize_rotor_state(out, time_, node_, initial_pointers_, stats_);
}

bool ShardedRotorRouter::apply_cycle_leap(
    const std::vector<sim::AccumulatorDelta>& deltas, std::uint64_t cycles) {
  return leap_rotor_accumulators(deltas, cycles, time_, stats_);
}

bool ShardedRotorRouter::deserialize_state(const sim::StateReader& in) {
  const auto restored =
      deserialize_rotor_state(in, csr_, node_, initial_pointers_, stats_);
  if (!restored) return false;
  time_ = restored->time;
  num_agents_ = restored->num_agents;
  covered_ = restored->covered;
  for (Shard& sh : shards_) {
    sh.occupied.clear();
    sh.touched.clear();
    sh.spill.assign(sh.spill.size(), 0);
    for (auto& bucket : sh.spill_touched) bucket.clear();
    sh.newly_covered = 0;
  }
  for (NodeId v : restored->sites) {
    shards_[part_.owner(v)].occupied.push_back(v);
  }
  return true;
}

}  // namespace rr::core
