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
// A round is a scan over the occupied list, then a commit of the touched
// list. The scan moves each node's non-held agents out and compacts the
// occupied list in place as it goes: a node stays listed, in order,
// exactly when it keeps agents, and the commit re-lists the vacated nodes
// that receive arrivals. On a large graph one exit is a chain of three
// dependent misses (node record, arc row, target record). When the
// per-node state exceeds kCacheResidentStateBytes, fixed at construction
// from num_nodes(), the scan issues those misses in stages 32, 16 and 8
// entries ahead so several exits' misses overlap (group prefetching, as in
// Chen et al., ICDE 2004); a cache-resident state keeps a single node
// prefetch 4 entries ahead, where the extra loads would cost more than
// they hide. The choice changes no trajectory, hash or checkpoint byte.
//
// The engine also maintains the bookkeeping used throughout the paper's
// analysis: n_v(t) (visits including the initial placement, Eq. (3)),
// e_v(t) (exits, Eq. (2)), first/last visit times and coverage.
//
// Delayed deployments (Sec. 2.1) are supported by `step_delayed`, which
// holds D(v,t) agents at v for the round.
//
// Sharded stepping. With `shards` > 1 the CSR row space is split by a
// graph::Partition and a round is two phases on a thread pool:
//
//   scan:  every shard walks its own occupied nodes, distributes the
//          exits, and writes arrivals either directly into the
//          destination's NodeState (in-shard) or into its per-shard spill
//          buffer indexed by the partition's frontier slots (out-of-shard).
//          All writes land in rows the shard owns or in its private spill,
//          so the phase is race-free by layout.
//
//   merge: every shard commits the arrivals for its own rows — first its
//          in-shard touched list, then the spill slots destined for it
//          from every source shard in ascending source order. The commit
//          order is a pure function of the configuration, never of thread
//          scheduling.
//
// Bit-equality across shard counts holds by construction: a round-t exit
// depends only on the (t-1)-state of its own node, arrivals are additive,
// and per-round bookkeeping depends only on per-node arrival totals, so
// config_hash matches round for round (enforced by the differential gate in
// tests/sharded_rotor_test.cpp). One shard runs the same scan and commit
// instantiated without the spill and merge steps. The shard count is an
// execution detail, not dynamical state: checkpoints are identical for
// every shard count and restore under any other. Delay schedules are
// evaluated shard-parallel, so they must be pure functions of
// (node, round, present), which the differential harness already requires.

#include <cstdint>
#include <memory>
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
#include "sim/thread_pool.hpp"

namespace rr::core {

using graph::CsrGraph;
using graph::Graph;
using graph::NodeId;

inline constexpr std::uint64_t kNotCovered = sim::kNotCovered;

/// Per-node state the round touches: one NodeState and one VisitStats.
inline constexpr std::size_t kStateBytesPerNode =
    sizeof(graph::NodeState) + sizeof(VisitStats);

/// State size above which rounds take the staged-gather scan: past a
/// core's private cache (2 MiB of L2 on the 4-core Xeon it was calibrated
/// on) each agent exit waits on its misses, so the scan overlaps them
/// across entries; below it the extra prefetch loads cost more than they
/// hide. Calibrated on bench_perf torus rows with k = n/16 (see README,
/// "Out-of-cache rounds").
inline constexpr std::size_t kCacheResidentStateBytes = std::size_t{1} << 21;

class RotorRouter final : public sim::Engine,
                          public sim::StateIO,
                          public sim::CycleLeapable {
 public:
  /// `csr`: a connected graph's adjacency (e.g. graph::intern_substrate;
  /// copies of a view share its arrays). `agents`: multiset of starting
  /// nodes (k = agents.size()). `pointers`: initial pi_v per node; empty
  /// means all ports 0. `shards` is clamped to [1, num_nodes]; above 1 the
  /// rounds run shard-parallel on `pool`, which may be shared (e.g.
  /// sim::Runner::pool(); stepping from inside a pool job then runs the
  /// shards inline). With pool == nullptr a multi-shard engine owns a pool
  /// of min(shards, hardware) threads.
  RotorRouter(CsrGraph csr, const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {},
              std::uint32_t shards = 1, sim::ThreadPool* pool = nullptr);

  /// As above over a snapshot of `g`, which must be connected; later
  /// mutation of `g` does not affect this engine.
  RotorRouter(const Graph& g, const std::vector<NodeId>& agents,
              std::vector<std::uint32_t> pointers = {},
              std::uint32_t shards = 1, sim::ThreadPool* pool = nullptr);

  /// Out-of-core construction over an opened `rr-graph v1` image (one
  /// shard): the CSR adjacency, NodeState and VisitStats arrays are views
  /// into the substrate's private mapping (degree/row_begin and the
  /// never-visited sentinel come precomputed from the image), so
  /// construction faults in O(agents) pages instead of touching every
  /// node. The mapping is MAP_PRIVATE: this engine's mutations never reach
  /// the image file, and each open() gives a fresh initial state. The
  /// substrate handle is retained via the views, so callers may drop
  /// their shared_ptr.
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
    if (pipelined_) {
      round<true>(delay);
    } else {
      round<false>(delay);
    }
    for (Shard& sh : shards_) {
      covered_ += sh.newly_covered;
      sh.newly_covered = 0;
    }
  }

  std::uint64_t time() const override { return time_; }
  const CsrGraph& graph() const { return csr_; }
  NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint32_t num_agents() const override { return num_agents_; }
  std::uint32_t num_shards() const { return part_.num_shards(); }
  /// Whether rounds take the staged-gather scan: fixed at construction,
  /// true when num_nodes() * kStateBytesPerNode exceeds
  /// kCacheResidentStateBytes.
  bool pipelined_scan() const { return pipelined_; }

  std::uint32_t agents_at(NodeId v) const { return node_[v].count; }
  std::uint32_t pointer(NodeId v) const { return node_[v].pointer; }
  /// Number of nodes hosting at least one agent: the scan drops every
  /// node it vacates from its shard's occupied list.
  std::size_t occupied_count() const;

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
  /// counters advance by per-cycle deltas in one pass over the delta runs,
  /// node state untouched — no serialize/reparse round trip.
  [[nodiscard]] bool apply_cycle_leap(
      const std::vector<sim::AccumulatorDelta>& deltas,
      std::uint64_t cycles) override;

 private:
  // Per-shard working state. Padded to a cache line so the occasional
  // cross-shard metadata write (vector size bumps, newly_covered) never
  // false-shares with a neighbor shard's.
  struct alignas(64) Shard {
    std::vector<NodeId> occupied;      // owned rows with count > 0 (unique)
    std::vector<NodeId> touched;       // owned rows with arrivals > 0
    std::vector<std::uint32_t> spill;  // per frontier slot, this round
    // Touched spill slots bucketed by destination shard, so the merge
    // reads exactly its own entries from each source instead of
    // filtering every source's full list.
    std::vector<std::vector<std::uint32_t>> spill_touched;
    NodeId newly_covered = 0;
  };

  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }

  template <bool Pipelined, typename DelayFn>
  void round(DelayFn& delay) {
    if (shards_.size() == 1) {
      scan_shard<true, Pipelined>(0, delay);
      commit_shard<true, Pipelined>(0);
    } else {
      const auto n = static_cast<std::uint64_t>(shards_.size());
      pool_->for_each(n, [&](std::uint64_t s) {
        scan_shard<false, Pipelined>(static_cast<std::uint32_t>(s), delay);
      }, /*chunk=*/1);
      pool_->for_each(n, [&](std::uint64_t s) {
        commit_shard<false, Pipelined>(static_cast<std::uint32_t>(s));
      }, /*chunk=*/1);
    }
  }

  template <bool SingleShard, bool Pipelined, typename DelayFn>
  void scan_shard(std::uint32_t s, DelayFn&& delay) {
    Shard& sh = shards_[s];
    if constexpr (!SingleShard) {
      // Slots were zeroed by last round's commits; only the bucket lists
      // need resetting before this round's deposits.
      for (auto& bucket : sh.spill_touched) bucket.clear();
    }
    const NodeId* arcs = csr_.arcs();
    const NodeId own_begin = part_.begin(s);
    const NodeId own_size = part_.end(s) - own_begin;
    NodeId* const occupied = sh.occupied.data();
    const std::size_t occupied_before = sh.occupied.size();
    std::size_t kept = 0;
    for (std::size_t idx = 0; idx < occupied_before; ++idx) {
      if constexpr (Pipelined) {
        // Staged gather: an exit's three dependent misses (node record,
        // then its arc row and stats line, then the first target's record)
        // are issued 32, 16 and 8 entries ahead, each stage reading what
        // the previous one brought in, so ~8 entries' misses overlap.
        if (idx + 32 < occupied_before) {
          prefetch_ro(&node_[occupied[idx + 32]]);
        }
        if (idx + 16 < occupied_before) {
          const NodeId a = occupied[idx + 16];
          prefetch_ro(arcs + node_[a].row_begin + node_[a].pointer);
          prefetch_ro(&stats_[a]);
        }
        if (idx + 8 < occupied_before) {
          const graph::NodeState& b = node_[occupied[idx + 8]];
          prefetch_ro(&node_[arcs[b.row_begin + b.pointer]]);
        }
      } else if (idx + 4 < occupied_before) {
        prefetch_ro(&node_[occupied[idx + 4]]);
      }
      const NodeId v = occupied[idx];
      graph::NodeState& ns = node_[v];
      const std::uint32_t present = ns.count;
      RR_ASSERT(present > 0, "vacated node left on the occupied list");
      std::uint32_t held = delay(v, time_, present);
      if (held > present) held = present;
      // Stable in-place compaction: a node stays listed exactly when it
      // keeps agents; arrivals re-list vacated nodes at commit.
      if (held > 0) occupied[kept++] = v;
      const std::uint32_t moving = present - held;
      if (moving == 0) continue;
      RR_ASSERT(ns.degree > 0, "agent stranded on isolated node");
      ns.pointer = distribute_exits(
          arcs + ns.row_begin, ns.degree, ns.pointer, moving,
          [&](std::uint32_t p, NodeId u, std::uint32_t c) {
            // An owned head is in-shard by the row range alone; only a
            // cross-shard arrival reads its precomputed frontier slot
            // (Partition::arc_slot), one more O(1) lookup.
            if (SingleShard || u - own_begin < own_size) {
              graph::NodeState& nu = node_[u];
              if (nu.arrivals == 0) sh.touched.push_back(u);
              nu.arrivals += c;
            } else {
              const std::uint32_t slot = part_.arc_slot(ns.row_begin + p);
              if (sh.spill[slot] == 0) {
                sh.spill_touched[part_.frontier_owner(s, slot)].push_back(slot);
              }
              sh.spill[slot] += c;
            }
          });
      stats_[v].exits += moving;
      ns.count = held;
    }
    sh.occupied.resize(kept);
  }

  /// Applies the optional initial pointer field and places the agent
  /// multiset (counts, the paper's n_v(0) visits, initial coverage).
  /// Expects degree/row_begin cached and the never-visited sentinel in
  /// stats_; touches only the agent nodes (plus every node when a pointer
  /// field is given), so an image-backed engine faults in O(agents) pages.
  void place_agents(const std::vector<NodeId>& agents,
                    const std::vector<std::uint32_t>& pointers);
  template <bool SingleShard, bool Pipelined>
  void commit_shard(std::uint32_t d);
  void commit_arrival(Shard& sh, NodeId u, std::uint32_t a);

  CsrGraph csr_;
  graph::Partition part_;
  std::uint32_t num_agents_;
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;
  /// True while the per-node arrays still hold construction defaults
  /// everywhere except the agent sites (constructed without a pointer
  /// override, never stepped or restored). Lets deserialize_state skip
  /// rewriting default-valued spans, so resuming into a freshly opened
  /// substrate image dirties only the pages that differ from the image.
  bool pristine_ = false;
  bool pipelined_ = false;  // see pipelined_scan()

  // Owned vectors for in-RAM construction, views into the image mapping
  // for image construction — same indexing either way.
  graph::MappedArray<graph::NodeState> node_;  // packed per-node hot state
  std::vector<std::uint32_t> initial_pointers_;
  graph::MappedArray<VisitStats> stats_;  // packed visits/exits/first/last
  std::vector<Shard> shards_;

  std::unique_ptr<sim::ThreadPool> owned_pool_;  // when none was shared
  sim::ThreadPool* pool_ = nullptr;
};

}  // namespace rr::core
