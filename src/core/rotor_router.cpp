#include "core/rotor_router.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/hash.hpp"
#include "core/rotor_state_io.hpp"
#include "graph/substrate.hpp"

namespace rr::core {

using graph::NodeState;

RotorRouter::RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers,
                         std::uint32_t shards, sim::ThreadPool* pool)
    : csr_(std::move(csr)),
      part_(csr_, shards),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(csr_.num_nodes()),
      stats_(csr_.num_nodes()),
      shards_(part_.num_shards()) {
  const std::uint32_t num_shards = part_.num_shards();
  if (num_shards > 1) {
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      shards_[s].spill.assign(part_.frontier(s).size(), 0);
      shards_[s].spill_touched.resize(num_shards);
    }
    if (!pool) {
      const unsigned hw = std::thread::hardware_concurrency();
      owned_pool_ = std::make_unique<sim::ThreadPool>(
          std::min<unsigned>(num_shards, hw ? hw : 1));
      pool = owned_pool_.get();
    }
    pool_ = pool;
  }
  for (NodeId v = 0; v < csr_.num_nodes(); ++v) {
    node_[v].degree = csr_.degree_unchecked(v);
    node_[v].row_begin = csr_.row_offset(v);
  }
  place_agents(agents, pointers);
  pristine_ = pointers.empty();
}

RotorRouter::RotorRouter(const Graph& g, const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers,
                         std::uint32_t shards, sim::ThreadPool* pool)
    : RotorRouter(graph::connected_csr(g), agents, std::move(pointers), shards,
                  pool) {}

RotorRouter::RotorRouter(const std::shared_ptr<graph::MappedSubstrate>& substrate,
                         const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers)
    : csr_(substrate->csr()),
      part_(csr_, 1),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(substrate->node_state()),
      stats_(substrate->visit_stats<VisitStats>()),
      shards_(1) {
  // The image builder verified connectivity (streamed kinds by
  // construction, built kinds explicitly) and precomputed
  // degree/row_begin, so only agent placement remains.
  place_agents(agents, pointers);
  // Only the first engine over this open may assume the mapping still
  // holds image defaults — engines sharing a handle share COW pages.
  // The claim is consumed unconditionally: this construction dirtied
  // the mapping either way.
  const bool first_over_mapping = substrate->claim_pristine_state();
  pristine_ = pointers.empty() && first_over_mapping;
}

void RotorRouter::place_agents(const std::vector<NodeId>& agents,
                               const std::vector<std::uint32_t>& pointers) {
  RR_REQUIRE(!agents.empty(), "at least one agent required");
  const NodeId n = csr_.num_nodes();
  if (pointers.empty()) {
    initial_pointers_.assign(n, 0);
  } else {
    RR_REQUIRE(pointers.size() == n, "pointer vector size mismatch");
    for (NodeId v = 0; v < n; ++v) {
      RR_REQUIRE(pointers[v] < csr_.degree_unchecked(v), "pointer out of range");
      node_[v].pointer = pointers[v];
    }
    initial_pointers_ = pointers;
  }
  for (const NodeId v : agents) {
    RR_REQUIRE(v < n, "agent start node out of range");
    if (node_[v].count == 0) {
      shards_[part_.owner(v)].occupied.push_back(v);
      stats_[v].first_visit = 0;
      ++covered_;
    }
    ++node_[v].count;
    ++stats_[v].visits;  // n_v(0) counts initially placed agents
  }
}

void RotorRouter::commit_arrival(Shard& sh, NodeId u, std::uint32_t a) {
  NodeState& nu = node_[u];
  if (nu.count == 0) sh.occupied.push_back(u);
  if (commit_node_arrival(nu, stats_[u], time_, a)) ++sh.newly_covered;
}

template <bool SingleShard>
void RotorRouter::commit_shard(std::uint32_t d) {
  Shard& sh = shards_[d];
  // Drop rows fully vacated this round and add newly occupied ones;
  // `count > 0` is the membership invariant, so the occupied list never
  // outgrows the set of owned rows hosting agents (delayed deployments
  // included).
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
  if constexpr (!SingleShard) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
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
}

template void RotorRouter::commit_shard<true>(std::uint32_t);
template void RotorRouter::commit_shard<false>(std::uint32_t);

std::size_t RotorRouter::occupied_count() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.occupied.size();
  return total;
}

std::vector<NodeId> RotorRouter::agent_positions() const {
  std::vector<NodeId> pos;
  pos.reserve(num_agents_);
  for (const Shard& sh : shards_) {
    for (NodeId v : sh.occupied) {
      for (std::uint32_t i = 0; i < node_[v].count; ++i) pos.push_back(v);
    }
  }
  std::sort(pos.begin(), pos.end());
  return pos;
}

std::uint64_t RotorRouter::config_hash() const {
  Fnv1a h;
  for (const NodeState& ns : node_) {
    h.mix(ns.pointer);
    h.mix(ns.count);
  }
  return h.value();
}

void RotorRouter::serialize_state(sim::StateWriter& out) const {
  serialize_rotor_state(out, time_, node_, initial_pointers_, stats_);
}

bool RotorRouter::apply_cycle_leap(
    const std::vector<sim::AccumulatorDelta>& deltas, std::uint64_t cycles) {
  // Atomic per the CycleLeapable contract: every delta key and length is
  // validated before anything mutates; false means "unknown shape,
  // nothing changed" and the wrapper falls back to its generic (equally
  // exact) leap path.
  const auto member_of = [](const std::string& key)
      -> std::uint64_t VisitStats::* {
    if (key == "visits") return &VisitStats::visits;
    if (key == "exits") return &VisitStats::exits;
    if (key == "last_visit") return &VisitStats::last_visit;
    return nullptr;
  };
  for (const sim::AccumulatorDelta& d : deltas) {
    if (d.key == "time") {
      if (!d.scalar) return false;
      continue;
    }
    if (d.scalar || member_of(d.key) == nullptr) return false;
    std::uint64_t covered = 0;
    for (const sim::DeltaRun& r : d.runs) covered += r.len;
    if (covered != stats_.size()) return false;
  }
  for (const sim::AccumulatorDelta& d : deltas) {
    if (d.key == "time") {
      time_ += cycles * d.scalar_delta;
      continue;
    }
    const auto member = member_of(d.key);
    std::uint64_t v = 0;
    for (const sim::DeltaRun& r : d.runs) {
      const std::uint64_t add = cycles * r.delta;
      if (add == 0) {
        v += r.len;
        continue;
      }
      for (std::uint64_t j = 0; j < r.len; ++j, ++v) stats_[v].*member += add;
    }
  }
  return true;
}

bool RotorRouter::deserialize_state(const sim::StateReader& in) {
  const bool assume_defaults = pristine_;
  pristine_ = false;
  if (assume_defaults) {
    // Undo the constructor's agent placement so the default-skipping
    // restore's precondition holds at every node (placement only
    // touched count, visits and first_visit on the agent sites).
    for (const Shard& sh : shards_) {
      for (const NodeId v : sh.occupied) {
        node_[v].count = 0;
        node_[v].arrivals = 0;
        stats_[v].visits = 0;
        stats_[v].first_visit = kNotCovered;
      }
    }
  }
  const auto restored = deserialize_rotor_state(
      in, csr_, node_, initial_pointers_, stats_, assume_defaults);
  if (!restored) return false;
  time_ = restored->time;
  num_agents_ = restored->num_agents;
  covered_ = restored->covered;
  // Between rounds every spill slot is zero and every touched list
  // empty, so the occupied lists are the only per-shard state to rebuild.
  for (Shard& sh : shards_) sh.occupied.clear();
  for (const NodeId v : restored->sites) {
    shards_[part_.owner(v)].occupied.push_back(v);
  }
  return true;
}

}  // namespace rr::core
