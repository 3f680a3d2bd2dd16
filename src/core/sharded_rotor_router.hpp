#pragma once

// Shard-parallel general-graph rotor-router engine.
//
// Same dynamical system as core::RotorRouter — the paper's Sec. 1.3
// synchronous rounds — executed shard-parallel over a graph::Partition of
// the CSR row space. A round is two phases on the pool:
//
//   scan:  every shard walks its own occupied nodes, distributes the
//          exits (core::distribute_exits), and writes arrivals either
//          directly into the destination's NodeState (in-shard) or into
//          its per-shard spill buffer indexed by the partition's frontier
//          slots (out-of-shard). All writes land in rows the shard owns
//          or in its private spill, so the phase is race-free by layout.
//
//   merge: every shard commits the arrivals for its own rows — first its
//          in-shard touched list, then the spill slots destined for it
//          from every source shard in ascending source order. The commit
//          order is therefore a pure function of the configuration, never
//          of thread scheduling.
//
// Bit-equality with the sequential engine holds by construction, not by
// tolerance: a round-t exit depends only on the (t-1)-state of its own
// node, arrivals are additive, and per-round bookkeeping (visits, first/
// last visit, coverage) depends only on per-node arrival *totals* — so
// any parallel schedule commits the exact configuration the sequential
// scan does, and config_hash matches round for round (enforced by the
// differential harness across shard counts, thread counts, and delayed
// schedules; see tests/sharded_rotor_test.cpp).
//
// Checkpoints are interchangeable with RotorRouter's: the engine reports
// engine_name() "rotor-router" and serializes the identical field set —
// the shard count is an execution detail, not dynamical state — so a
// sharded run can resume sequentially and vice versa (rr_cli run
// --resume ... --shards N).
//
// Delay schedules are evaluated shard-parallel; they must be pure
// functions of (node, round, present), which the differential harness
// already requires of every schedule.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/require.hpp"
#include "core/shard_step.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/engine.hpp"
#include "sim/state_io.hpp"
#include "sim/thread_pool.hpp"

namespace rr::core {

class ShardedRotorRouter final : public sim::Engine,
                                 public sim::StateIO,
                                 public sim::CycleLeapable {
 public:
  /// `shards` 0 = one shard per pool thread. `pool` may be shared (e.g.
  /// sim::Runner::pool()) so trial- and shard-level parallelism draw from
  /// one set of threads; stepping from inside a pool job then runs the
  /// shards inline (ThreadPool nesting rule). With pool == nullptr the
  /// engine owns a pool sized to min(shards, hardware).
  /// `csr` is a connected graph's adjacency (e.g. the interned substrate
  /// of graph/substrate.hpp, shared with other engines on the graph).
  ShardedRotorRouter(graph::CsrGraph csr,
                     const std::vector<graph::NodeId>& agents,
                     std::vector<std::uint32_t> pointers = {},
                     std::uint32_t shards = 0,
                     sim::ThreadPool* pool = nullptr);

  /// As above over a snapshot of `g`, which must be connected.
  ShardedRotorRouter(const graph::Graph& g,
                     const std::vector<graph::NodeId>& agents,
                     std::vector<std::uint32_t> pointers = {},
                     std::uint32_t shards = 0,
                     sim::ThreadPool* pool = nullptr);

  void step() override {
    step_delayed([](graph::NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// Delayed round (paper Sec. 2.1); `delay` is evaluated concurrently
  /// across shards and must be a pure function of (v, t, present).
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    ++time_;
    const std::uint32_t shards = part_.num_shards();
    if (shards == 1) {
      // Single-shard fast path: every arrival is in-shard, so the scan
      // skips the ownership test and the round matches the sequential
      // engine's cost.
      scan_shard<true>(0, delay);
      commit_shard(0);
      covered_ += shards_[0].newly_covered;
      shards_[0].newly_covered = 0;
      return;
    }
    pool_->for_each(shards, [&](std::uint64_t s) {
      scan_shard<false>(static_cast<std::uint32_t>(s), delay);
    }, /*chunk=*/1);
    pool_->for_each(shards, [&](std::uint64_t s) {
      commit_shard(static_cast<std::uint32_t>(s));
    }, /*chunk=*/1);
    for (std::uint32_t s = 0; s < shards; ++s) {
      covered_ += shards_[s].newly_covered;
      shards_[s].newly_covered = 0;
    }
  }

  std::uint64_t time() const override { return time_; }
  const graph::CsrGraph& graph() const { return csr_; }
  const graph::Partition& partition() const { return part_; }
  std::uint32_t num_shards() const { return part_.num_shards(); }
  graph::NodeId num_nodes() const override { return csr_.num_nodes(); }
  std::uint32_t num_agents() const override { return num_agents_; }

  std::uint32_t agents_at(graph::NodeId v) const { return node_[v].count; }
  std::uint32_t pointer(graph::NodeId v) const { return node_[v].pointer; }

  std::uint64_t visits(graph::NodeId v) const override {
    return stats_[v].visits;
  }
  std::uint64_t exits(graph::NodeId v) const { return stats_[v].exits; }
  std::uint64_t first_visit_time(graph::NodeId v) const override {
    return stats_[v].first_visit;
  }
  std::uint64_t last_visit_time(graph::NodeId v) const {
    return stats_[v].last_visit;
  }
  graph::NodeId covered_count() const override { return covered_; }

  std::uint64_t config_hash() const override;

  /// "rotor-router", deliberately: the shard count is not part of the
  /// dynamical state, so checkpoints restore through the same factory
  /// entry as the sequential engine (see header comment).
  const char* engine_name() const override { return "rotor-router"; }

  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

  /// Confirmed-cycle fast leap (sim::CycleLeapable), identical to the
  /// sequential engine's: per-node stats and time advance in place.
  [[nodiscard]] bool apply_cycle_leap(
      const std::vector<sim::AccumulatorDelta>& deltas,
      std::uint64_t cycles) override;

 private:
  // Per-shard working state. Padded to a cache line so the occasional
  // cross-shard metadata write (vector size bumps, newly_covered) never
  // false-shares with a neighbor shard's.
  struct alignas(64) Shard {
    std::vector<graph::NodeId> occupied;  // owned rows with count > 0
    std::vector<graph::NodeId> touched;   // own rows with arrivals > 0
    std::vector<std::uint32_t> spill;     // per frontier slot, this round
    // Touched spill slots bucketed by destination shard, so the merge
    // phase reads exactly its own entries from each source instead of
    // filtering every source's full list (which would multiply
    // cross-shard commit work by the shard count).
    std::vector<std::vector<std::uint32_t>> spill_touched;
    graph::NodeId newly_covered = 0;
  };

  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }

  template <bool SingleShard, typename DelayFn>
  void scan_shard(std::uint32_t s, DelayFn&& delay) {
    Shard& sh = shards_[s];
    // Slots were zeroed by last round's commits; only the bucket lists
    // need resetting before this round's deposits.
    for (auto& bucket : sh.spill_touched) bucket.clear();
    const graph::NodeId* arcs = csr_.arcs();
    const std::size_t occupied_before = sh.occupied.size();
    for (std::size_t idx = 0; idx < occupied_before; ++idx) {
      if (idx + 4 < occupied_before) prefetch_ro(&node_[sh.occupied[idx + 4]]);
      const graph::NodeId v = sh.occupied[idx];
      graph::NodeState& ns = node_[v];
      const std::uint32_t present = ns.count;
      if (present == 0) continue;  // stale entry; dropped at commit
      std::uint32_t held = delay(v, time_, present);
      if (held > present) held = present;
      const std::uint32_t moving = present - held;
      if (moving == 0) continue;
      RR_ASSERT(ns.degree > 0, "agent stranded on isolated node");
      ns.pointer = distribute_exits(
          arcs + ns.row_begin, ns.degree, ns.pointer, moving,
          [&](std::uint32_t p, graph::NodeId u, std::uint32_t c) {
            // Arc classification is a precomputed table lookup
            // (Partition::arc_slot), so cross-shard arrivals cost the
            // same O(1) as in-shard ones.
            const std::uint32_t slot =
                SingleShard ? graph::Partition::kInShard
                            : part_.arc_slot(ns.row_begin + p);
            if (slot == graph::Partition::kInShard) {
              graph::NodeState& nu = node_[u];
              if (nu.arrivals == 0) sh.touched.push_back(u);
              nu.arrivals += c;
            } else {
              if (sh.spill[slot] == 0) {
                sh.spill_touched[part_.frontier_owner(s, slot)].push_back(slot);
              }
              sh.spill[slot] += c;
            }
          });
      stats_[v].exits += moving;
      ns.count = held;
    }
  }

  void commit_shard(std::uint32_t d);
  void commit_arrival(Shard& sh, graph::NodeId u, std::uint32_t c);

  graph::CsrGraph csr_;
  graph::Partition part_;
  std::uint32_t num_agents_;
  std::uint64_t time_ = 0;
  graph::NodeId covered_ = 0;

  std::vector<graph::NodeState> node_;  // packed per-node hot state
  std::vector<std::uint32_t> initial_pointers_;
  std::vector<VisitStats> stats_;
  std::vector<Shard> shards_;

  std::unique_ptr<sim::ThreadPool> owned_pool_;  // when none was shared
  sim::ThreadPool* pool_;
};

}  // namespace rr::core
