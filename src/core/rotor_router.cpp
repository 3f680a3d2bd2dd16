#include "core/rotor_router.hpp"

#include <algorithm>
#include <utility>

#include "core/rotor_state_io.hpp"
#include "graph/substrate.hpp"

namespace rr::core {

RotorRouter::RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers)
    : csr_(std::move(csr)),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(csr_.num_nodes()),
      stats_(csr_.num_nodes()) {
  covered_ = init_rotor_nodes(csr_, agents, pointers, node_,
                              initial_pointers_, stats_,
                              [&](NodeId v) { occupied_.push_back(v); });
  pristine_ = pointers.empty();
}

RotorRouter::RotorRouter(const Graph& g, const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers)
    : RotorRouter(graph::connected_csr(g), agents, std::move(pointers)) {}

RotorRouter::RotorRouter(const std::shared_ptr<graph::MappedSubstrate>& substrate,
                         const std::vector<NodeId>& agents,
                         std::vector<std::uint32_t> pointers)
    : csr_(substrate->csr()),
      num_agents_(static_cast<std::uint32_t>(agents.size())),
      node_(substrate->node_state()),
      stats_(substrate->visit_stats<VisitStats>()) {
  // The image builder verified connectivity (streamed kinds by
  // construction, built kinds explicitly) and precomputed
  // degree/row_begin, so only agent placement remains.
  covered_ = place_rotor_agents(csr_, agents, pointers, node_,
                                initial_pointers_, stats_,
                                [&](NodeId v) { occupied_.push_back(v); });
  // Only the first engine over this open may assume the mapping still
  // holds image defaults — engines sharing a handle share COW pages.
  // The claim is consumed unconditionally: this construction dirtied
  // the mapping either way.
  const bool first_over_mapping = substrate->claim_pristine_state();
  pristine_ = pointers.empty() && first_over_mapping;
}

void RotorRouter::commit_arrivals() {
  // Drop stale entries (nodes fully vacated this round) and add newly
  // occupied nodes; `count > 0` is the membership invariant, so the
  // occupied list never outgrows the set of nodes hosting agents (delayed
  // deployments included).
  std::size_t w = 0;
  for (std::size_t i = 0; i < occupied_.size(); ++i) {
    if (node_[occupied_[i]].count > 0) occupied_[w++] = occupied_[i];
  }
  occupied_.resize(w);
  const std::size_t touched_n = touched_.size();
  for (std::size_t i = 0; i < touched_n; ++i) {
    if (i + 4 < touched_n) prefetch_ro(&stats_[touched_[i + 4]]);
    const NodeId u = touched_[i];
    graph::NodeState& nu = node_[u];
    const std::uint32_t a = nu.arrivals;
    if (a == 0) continue;  // duplicate touch already committed
    nu.arrivals = 0;
    if (nu.count == 0) occupied_.push_back(u);
    if (commit_node_arrival(nu, stats_[u], time_, a)) ++covered_;
  }
  touched_.clear();
}

std::vector<NodeId> RotorRouter::agent_positions() const {
  std::vector<NodeId> pos;
  pos.reserve(num_agents_);
  for (NodeId v : occupied_) {
    for (std::uint32_t i = 0; i < node_[v].count; ++i) pos.push_back(v);
  }
  std::sort(pos.begin(), pos.end());
  return pos;
}

std::uint64_t RotorRouter::config_hash() const {
  return rotor_config_hash(node_);
}

void RotorRouter::serialize_state(sim::StateWriter& out) const {
  serialize_rotor_state(out, time_, node_, initial_pointers_, stats_);
}

bool RotorRouter::apply_cycle_leap(
    const std::vector<sim::AccumulatorDelta>& deltas, std::uint64_t cycles) {
  return leap_rotor_accumulators(deltas, cycles, time_, stats_);
}

bool RotorRouter::deserialize_state(const sim::StateReader& in) {
  const bool assume_defaults = pristine_;
  pristine_ = false;
  if (assume_defaults) {
    // Undo the constructor's agent placement so the default-skipping
    // restore's precondition holds at every node (placement only
    // touched count, visits and first_visit on the agent sites).
    for (const NodeId v : occupied_) {
      node_[v].count = 0;
      node_[v].arrivals = 0;
      stats_[v].visits = 0;
      stats_[v].first_visit = kNotCovered;
    }
  }
  const auto restored = deserialize_rotor_state(
      in, csr_, node_, initial_pointers_, stats_, assume_defaults);
  if (!restored) return false;
  time_ = restored->time;
  num_agents_ = restored->num_agents;
  covered_ = restored->covered;
  occupied_ = restored->sites;
  return true;
}

}  // namespace rr::core
