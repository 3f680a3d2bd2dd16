#include "core/rotor_router.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/hash.hpp"
#include "graph/substrate.hpp"

namespace rr::core {

using graph::NodeState;

namespace {

bool state_out_of_cache(NodeId n) {
  return std::size_t{n} * kStateBytesPerNode > kCacheResidentStateBytes;
}

// The six lockstep per-node checkpoint fields, in serialize_state's
// order, with each one's construction-time default value (see
// apply_rotor_fields' allow_skip).
constexpr std::size_t kRotorFields = 6;
constexpr const char* kRotorFieldKeys[kRotorFields] = {
    "pointers", "initial_pointers", "visits",
    "exits",    "first_visit",      "last_visit"};
constexpr std::uint64_t kRotorFieldDefaults[kRotorFields] = {
    0, 0, 0, 0, kNotCovered, 0};

// Applies the six lockstep cursors over every node: validates degrees,
// writes node/stats/initial_pointers, counts covered nodes. Node v's
// whole record is validated and written in one touch, so a restore makes
// a single pass over the state memory instead of six. The cursors must
// produce exactly one element per node each (checked via finished()).
// `allow_skip`: the caller guarantees every node holds the
// construction-time defaults, so spans where all six runs are constant
// defaults are skipped instead of rewritten; restoring into a freshly
// opened substrate image then dirties only the pages that differ from
// it. nullopt on any malformed or inconsistent stream; the state may
// then be partially written (the StateIO failed-restore contract).
std::optional<NodeId> apply_rotor_fields(
    std::optional<sim::U64ListCursor>* cursors, const CsrGraph& csr,
    graph::MappedArray<NodeState>& node,
    std::vector<std::uint32_t>& initial_pointers,
    graph::MappedArray<VisitStats>& stats, bool allow_skip) {
  const NodeId n = csr.num_nodes();
  NodeId covered = 0;
  sim::U64ListCursor::Run run[kRotorFields];
  for (NodeId v = 0; v < n;) {
    std::uint64_t span = n - v;
    for (std::size_t k = 0; k < kRotorFields; ++k) {
      if (run[k].len == 0) {
        const auto r = cursors[k]->next_run();
        if (!r) return std::nullopt;
        run[k] = *r;
      }
      span = std::min(span, run[k].len);
    }
    bool skip = allow_skip;
    for (std::size_t k = 0; skip && k < kRotorFields; ++k) {
      skip = run[k].delta == 0 && run[k].value == kRotorFieldDefaults[k];
    }
    if (!skip) {
      for (std::uint64_t j = 0; j < span; ++j) {
        const NodeId u = v + static_cast<NodeId>(j);
        const std::uint32_t degree = csr.degree_unchecked(u);
        if (run[0].value >= degree || run[1].value >= degree) {
          return std::nullopt;
        }
        node[u].count = 0;
        node[u].arrivals = 0;
        node[u].pointer = static_cast<std::uint32_t>(run[0].value);
        initial_pointers[u] = static_cast<std::uint32_t>(run[1].value);
        stats[u].visits = run[2].value;
        stats[u].exits = run[3].value;
        stats[u].first_visit = run[4].value;
        stats[u].last_visit = run[5].value;
        if (run[4].value != kNotCovered) ++covered;
        for (std::size_t k = 0; k < kRotorFields; ++k) {
          run[k].value += run[k].delta;
        }
      }
    }
    // A skipped span holds constant defaults (delta 0, so its values
    // stay put) and gains no coverage: first_visit is the sentinel.
    for (std::size_t k = 0; k < kRotorFields; ++k) run[k].len -= span;
    v += static_cast<NodeId>(span);
  }
  for (std::size_t k = 0; k < kRotorFields; ++k) {
    if (!cursors[k]->finished()) return std::nullopt;
  }
  return covered;
}

}  // namespace

RotorRouter::RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers,
                         std::uint32_t shards, sim::ThreadPool* pool)
    : csr_(std::move(csr)),
      part_(csr_, shards),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      pipelined_(state_out_of_cache(csr_.num_nodes())),
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
      pipelined_(state_out_of_cache(csr_.num_nodes())),
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

template <bool SingleShard, bool Pipelined>
void RotorRouter::commit_shard(std::uint32_t d) {
  Shard& sh = shards_[d];
  // The scan left only rows still hosting agents on the occupied list;
  // committing re-lists the rows this round's arrivals fill.

  // Own in-shard arrivals, in scan order.
  const std::size_t touched_n = sh.touched.size();
  for (std::size_t i = 0; i < touched_n; ++i) {
    if constexpr (Pipelined) {
      if (i + 8 < touched_n) {
        prefetch_ro(&stats_[sh.touched[i + 8]]);
        prefetch_ro(&node_[sh.touched[i + 8]]);
      }
    } else {
      if (i + 4 < touched_n) prefetch_ro(&stats_[sh.touched[i + 4]]);
    }
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

template void RotorRouter::commit_shard<true, false>(std::uint32_t);
template void RotorRouter::commit_shard<true, true>(std::uint32_t);
template void RotorRouter::commit_shard<false, false>(std::uint32_t);
template void RotorRouter::commit_shard<false, true>(std::uint32_t);

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
  // Time, sparse agent sites (ascending node id), pointer fields, visit
  // statistics. The per-node fields are lazy views straight over the
  // engine arrays: nothing O(n) is materialized, so checkpointing an
  // mmap-backed 1e8-node engine allocates only the sparse site list.
  const std::size_t n = node_.size();
  out.field_u64("time", time_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sites;
  for (std::size_t v = 0; v < n; ++v) {
    if (node_[v].count > 0) sites.emplace_back(v, node_[v].count);
  }
  out.field_pairs("agents", sites);
  const std::uint32_t node_stride = sizeof(NodeState);
  const std::uint32_t stats_stride = sizeof(VisitStats);
  out.field_list_strided("pointers", n, &node_[0].pointer, node_stride, 4);
  out.field_list_strided("initial_pointers", n, initial_pointers_.data(),
                         sizeof(std::uint32_t), 4);
  out.field_list_strided("visits", n, &stats_[0].visits, stats_stride, 8);
  out.field_list_strided("exits", n, &stats_[0].exits, stats_stride, 8);
  out.field_list_strided("first_visit", n, &stats_[0].first_visit,
                         stats_stride, 8);
  out.field_list_strided("last_visit", n, &stats_[0].last_visit,
                         stats_stride, 8);
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
  const NodeId n = csr_.num_nodes();
  const auto time = in.u64("time");
  const auto sites = in.pairs("agents");
  if (!time || !sites || sites->empty()) return false;
  std::uint64_t total_agents = 0;
  for (const auto& [v, c] : *sites) {
    if (v >= n || c == 0 || c > ~std::uint32_t{0}) return false;
    total_agents += c;
  }
  if (total_agents > ~std::uint32_t{0}) return false;

  initial_pointers_.resize(n);
  std::optional<sim::U64ListCursor> cursors[kRotorFields];
  for (std::size_t k = 0; k < kRotorFields; ++k) {
    cursors[k] = in.u64_list_cursor(kRotorFieldKeys[k], n);
    if (!cursors[k]) return false;
  }
  const auto covered =
      apply_rotor_fields(cursors, csr_, node_, initial_pointers_, stats_,
                         /*allow_skip=*/assume_defaults && n > 1);
  if (!covered) return false;
  time_ = *time;
  num_agents_ = static_cast<std::uint32_t>(total_agents);
  covered_ = *covered;
  // Between rounds every spill slot is zero and every touched list
  // empty, so the occupied lists are the only per-shard state to rebuild.
  for (Shard& sh : shards_) sh.occupied.clear();
  for (const auto& [v, c] : *sites) {
    node_[v].count = static_cast<std::uint32_t>(c);
    shards_[part_.owner(v)].occupied.push_back(static_cast<NodeId>(v));
  }
  return true;
}

}  // namespace rr::core
