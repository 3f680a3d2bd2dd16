#pragma once

// General-graph multi-agent rotor-router engine (S3).
//
// Direct transliteration of the model in paper Sec. 1.3. A configuration is
// ((rho_v), (pi_v), {r_1..r_k}): rho_v is the cyclic port order (owned by the
// Graph), pi_v the current port pointer, and the agents form a multiset of
// node positions. One synchronous round moves, at every node v hosting c
// agents, the c agents out along ports pi_v, pi_v+1, ..., pi_v+c-1 (mod
// deg v), then advances pi_v by c. Agents are indistinguishable, so the
// engine stores per-node counts rather than identities.
//
// The engine steps on a CsrGraph, so the stepping loops scan flat arrays
// instead of chasing nested vectors. Registry-built engines share one
// interned CSR per graph (graph/substrate.hpp); the Graph constructor
// snapshots its own (permute ports on the Graph before constructing).
// The per-node hot state lives in one packed graph::NodeState stride
// (count, pointer, degree) and the visit bookkeeping in one VisitStats
// stride — the round is memory-latency-bound on scattered nodes, so each
// agent exit gathers two cache lines instead of six parallel-array ones.
//
// The engine also maintains the bookkeeping used throughout the paper's
// analysis: n_v(t) (visits including the initial placement, Eq. (3)),
// e_v(t) (exits, Eq. (2)), first/last visit times and coverage.
//
// Delayed deployments (Sec. 2.1) are supported by `step_delayed`, which
// holds D(v,t) agents at v for the round.

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "core/shard_step.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "graph/mmap_substrate.hpp"
#include "graph/partition.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"

namespace rr::core {

using graph::CsrGraph;
using graph::Graph;
using graph::NodeId;

inline constexpr std::uint64_t kNotCovered = sim::kNotCovered;

class RotorRouter final : public sim::Engine,
                          public sim::StateIO,
                          public sim::CycleLeapable {
 public:
  /// `csr`: a connected graph's adjacency (e.g. graph::intern_substrate;
  /// copies of a view share its arrays). `agents`: multiset of starting
  /// nodes (k = agents.size()). `pointers`: initial pi_v per node; empty
  /// means all ports 0.
  RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {});

  /// As above over a snapshot of `g`, which must be connected; later
  /// mutation of `g` does not affect this engine.
  RotorRouter(const Graph& g, const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {});

  /// Out-of-core construction over an opened `rr-graph v1` image: the CSR
  /// adjacency, NodeState and VisitStats arrays are views into the
  /// substrate's private mapping (degree/row_begin and the never-visited
  /// sentinel come precomputed from the image), so construction faults in
  /// O(agents) pages instead of touching every node. The mapping is
  /// MAP_PRIVATE: this engine's mutations never reach the image file, and
  /// each open() gives a fresh initial state. The substrate handle is
  /// retained via the views, so callers may drop their shared_ptr.
  RotorRouter(const std::shared_ptr<graph::MappedSubstrate>& substrate,
              const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {});

  /// One synchronous round with no delays.
  void step() override {
    step_delayed([](NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// One synchronous round of a delayed deployment: `delay(v, t, present)`
  /// returns D(v,t), the number of agents (clamped to `present`) held at v
  /// during round t. Holding agents never increases visit counts (Lemma 1).
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    pristine_ = false;
    ++time_;
    const NodeId* arcs = csr_.arcs();
    const std::size_t occupied_before = occupied_.size();
    for (std::size_t idx = 0; idx < occupied_before; ++idx) {
      if (idx + 4 < occupied_before) prefetch_ro(&node_[occupied_[idx + 4]]);
      const NodeId v = occupied_[idx];
      graph::NodeState& ns = node_[v];
      const std::uint32_t present = ns.count;
      if (present == 0) continue;  // stale entry; skipped and dropped below
      std::uint32_t held = delay(v, time_, present);
      if (held > present) held = present;
      const std::uint32_t moving = present - held;
      if (moving == 0) continue;
      RR_ASSERT(ns.degree > 0, "agent stranded on isolated node");
      ns.pointer = distribute_exits(
          arcs + ns.row_begin, ns.degree, ns.pointer, moving,
          [&](std::uint32_t, NodeId u, std::uint32_t c) {
            graph::NodeState& nu = node_[u];
            if (nu.arrivals == 0) touched_.push_back(u);
            nu.arrivals += c;
          });
      stats_[v].exits += moving;
      ns.count = held;
    }
    commit_arrivals();
  }

  std::uint64_t time() const override { return time_; }
  const CsrGraph& graph() const { return csr_; }
  NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint32_t num_agents() const override { return num_agents_; }

  std::uint32_t agents_at(NodeId v) const { return node_[v].count; }
  std::uint32_t pointer(NodeId v) const { return node_[v].pointer; }
  const std::vector<NodeId>& occupied_nodes() const { return occupied_; }
  /// Number of occupied-list entries; commit_arrivals keeps this equal to
  /// the number of nodes hosting at least one agent (no stale growth).
  std::size_t occupied_count() const { return occupied_.size(); }

  /// n_v(t): total visits to v in rounds [1,t] plus agents placed at v
  /// initially (paper's n_v(0) convention).
  std::uint64_t visits(NodeId v) const override { return stats_[v].visits; }
  /// e_v(t): total exits from v in rounds [1,t].
  std::uint64_t exits(NodeId v) const { return stats_[v].exits; }

  /// Total traversals of the arc (v, neighbor(v, port)) so far, via the
  /// paper's Sec. 1.3 identity: ceil((e_v - label) / deg v), where the
  /// label of a port is its offset from the *initial* pointer at v. Exact
  /// at every round boundary; used for Yanovski-style edge-fairness
  /// measurements without per-arc counters.
  std::uint64_t arc_traversals(NodeId v, std::uint32_t port) const {
    RR_REQUIRE(v < node_.size(), "node out of range");
    const std::uint32_t deg = csr_.degree(v);
    RR_REQUIRE(port < deg, "port out of range");
    const std::uint32_t label = (port + deg - initial_pointers_[v]) % deg;
    const std::uint64_t e = stats_[v].exits;
    return e > label ? (e - label + deg - 1) / deg : 0;
  }

  /// Round of the first visit (0 for initial hosts), kNotCovered if none.
  std::uint64_t first_visit_time(NodeId v) const override {
    return stats_[v].first_visit;
  }
  std::uint64_t last_visit_time(NodeId v) const { return stats_[v].last_visit; }

  NodeId covered_count() const override { return covered_; }

  /// Sorted multiset of agent positions (for tests / hashing).
  std::vector<NodeId> agent_positions() const;

  /// FNV-1a hash of (pointers, agent counts): identifies a configuration.
  std::uint64_t config_hash() const override;

  const char* engine_name() const override { return "rotor-router"; }

  /// Full dynamical state: time, pointer field (current and initial, the
  /// latter backing arc_traversals), sparse agent counts, visit/exit
  /// statistics. A deserialized engine continues bit-exactly.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

  /// Confirmed-cycle fast leap (sim::CycleLeapable): time and the stats
  /// counters advance by per-cycle deltas, node state untouched.
  [[nodiscard]] bool apply_cycle_leap(
      const std::vector<sim::AccumulatorDelta>& deltas,
      std::uint64_t cycles) override;

 private:
  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }
  void commit_arrivals();

  CsrGraph csr_;
  std::uint32_t num_agents_;
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;
  /// True while the per-node arrays still hold construction defaults
  /// everywhere except the agent sites (constructed without a pointer
  /// override, never stepped or restored). Lets deserialize_state skip
  /// rewriting default-valued spans, so resuming into a freshly opened
  /// substrate image dirties only the pages that differ from the image.
  bool pristine_ = false;

  // Owned vectors for in-RAM construction, views into the image mapping
  // for image construction — same indexing either way.
  graph::MappedArray<graph::NodeState> node_;  // packed per-node hot state
  std::vector<std::uint32_t> initial_pointers_;
  std::vector<NodeId> occupied_;  // nodes with node_[v].count > 0 (unique)
  std::vector<NodeId> touched_;   // nodes with node_[v].arrivals > 0
  graph::MappedArray<VisitStats> stats_;  // packed visits/exits/first/last
};

}  // namespace rr::core
