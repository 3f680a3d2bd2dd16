#pragma once

// Lazy domain-dynamics ring engine (paper Sec. 2.2, Definition 1, Fig. 1).
//
// Once the multi-agent rotor-router on the ring leaves its transient phase,
// the whole configuration collapses to O(k) structure: the pointer field is
// a handful of constant arcs (each agent's domain contributes one arc of
// pointers "behind" it and one "ahead", separated by the vertex-/edge-type
// borders of Fig. 1), every node hosts at most two agents, and the
// unexplored region is a union of at most k arcs. This engine exploits that
// collapse while staying fast when it has not happened yet.
//
// It holds one lossless state — time, the sorted occupied sites, pointers,
// visits, first visits, coverage — and steps it with one of two kernels:
//
//   - The dense kernel keeps pointers as a byte per node and visits as a
//     plain counter per node. A round costs O(#sites) with no sort: held
//     agents stay on their sorted sites, and clockwise and anticlockwise
//     departures form two more sorted streams, so the next sites are the
//     merge of three sorted lists. This is the kernel for crowded stretches
//     (the paper's worst case starts every agent on one node).
//   - The leap kernel keeps pointers as a map of maximal constant runs,
//     visits in a range-add Fenwick tree and the unvisited region as an arc
//     map. When every site hosts one agent, run()/run_until_covered()
//     advance all agents ballistically through W rounds in O(k log k),
//     where W is half the minimum inter-agent gap — the horizon within which
//     agents provably cannot influence one another. Visit counts absorb
//     whole sweeps and first visits get their exact rounds. Otherwise it
//     steps the same exact round as the dense kernel over its own storage.
//
// The engine switches kernels from what leaping observably buys: the
// rounds each ballistic segment (one agent's stretch inside one pointer
// run) advances. Below kBreakEvenRounds a segment costs more than the dense
// rounds it replaces, so the leap kernel demotes itself; the dense kernel
// retries at doubling intervals once its sites could leap that far again
// and the pointer field has O(k) runs. Both kernels replay the exact dense
// semantics (ceil/floor port splitting, pointer advance by parity, arrival
// merging), so delayed deployments and pile-ups stay bit-exact, and
// checkpoints are written in one layout whichever kernel is active.
//
// Equality with RingRotorRouter (and RotorRouter on graph::ring) at every
// round — config_hash, visits, first visits, coverage, under randomized
// delayed schedules — is enforced by tests/differential_test.cpp.

#include <cstdint>
#include <map>
#include <vector>

#include "common/fenwick.hpp"
#include "common/require.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/engine.hpp"

namespace rr::core {

class LazyRingRotorRouter final : public sim::Engine, public sim::StateIO {
 public:
  /// Same contract as RingRotorRouter: `agents` is the multiset of starting
  /// nodes, `pointers` the per-node initial pointer (empty = all clockwise).
  LazyRingRotorRouter(NodeId n, const std::vector<NodeId>& agents,
                      std::vector<std::uint8_t> pointers = {});

  void step() override {
    step_delayed([](NodeId, std::uint64_t, std::uint32_t) { return 0u; });
  }

  /// One delayed round; `delay(v, t, present)` -> agents held at v (Sec 2.1).
  /// Schedules must be pure functions of their arguments: engines may
  /// evaluate them in any per-round node order.
  template <typename DelayFn>
  void step_delayed(DelayFn&& delay) {
    if (!leap_) maybe_promote();
    round(std::forward<DelayFn>(delay));
  }

  /// Ballistic fast-forward between interaction events while the leap
  /// kernel is active; plain dense rounds otherwise.
  void run(std::uint64_t rounds) override;

  /// Fast-forwarded like run(); lands exactly on the cover round (leaps
  /// that would overshoot coverage are clamped to the final first-visit).
  std::uint64_t run_until_covered(std::uint64_t max_rounds) override;

  std::uint64_t time() const override { return time_; }
  NodeId num_nodes() const override { return n_; }
  std::uint32_t num_agents() const override { return k_; }

  std::uint64_t visits(NodeId v) const override;
  std::uint64_t first_visit_time(NodeId v) const override;
  NodeId covered_count() const override { return covered_; }
  std::uint64_t config_hash() const override;
  const char* engine_name() const override { return "lazy-ring-rotor-router"; }

  std::uint32_t agents_at(NodeId v) const;
  std::uint8_t pointer(NodeId v) const;

  /// True while the leap kernel (the O(k) run representation) is active.
  bool lazy() const { return leap_; }

  /// Switches to the leap kernel now. Without `force` it switches only if
  /// the pointer field has collapsed to O(k) runs (the post-transient
  /// signature); with `force` it always does (the run representation is
  /// exact at any configuration, just not compact). The switching policy
  /// may still demote the engine later if leaps do not pay.
  bool try_promote(bool force = false);

  /// Maximal constant runs of the pointer field (the promotion criterion;
  /// a run wrapping past node 0 counts as two).
  std::uint32_t pointer_arc_count() const;

  /// One layout for either kernel: `phase=lazy` with the maximal pointer
  /// runs, the sorted agent sites, visits and first visits. The bytes do
  /// not depend on kernel history or on how run() was chunked. A load
  /// also accepts the older `phase=dense` layout (a RingRotorRouter state
  /// plus promotion scalars) and picks its kernel like the constructor.
  void serialize_state(sim::StateWriter& out) const override;
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override;

 private:
  struct Site {
    NodeId node;
    std::uint32_t count;
  };

  void do_step_delayed(const sim::DelayFn& delay) override {
    step_delayed(delay);
  }

  // ---- one exact synchronous round (either kernel) ----

  template <typename DelayFn>
  void round(DelayFn&& delay) {
    ++time_;
    cw_.clear();
    acw_.clear();
    std::size_t kept = 0;
    std::uint64_t departures = 0;
    for (const Site s : sites_) {
      const std::uint32_t present = s.count;
      std::uint32_t held = delay(s.node, time_, present);
      if (held > present) held = present;
      const std::uint32_t moving = present - held;
      if (moving > 0) {
        depart(s.node, moving);
        ++departures;
      }
      if (held > 0) sites_[kept++] = {s.node, held};
    }
    sites_.resize(kept);
    commit_round();
    if (leap_) note_leap_work(departures, departures);
  }

  /// Sends `moving` agents out of v through alternating ports starting at
  /// the pointer — ceil(moving/2) through the pointer's direction,
  /// floor(moving/2) the other way — and advances the pointer by parity.
  /// Mirrors RingRotorRouter::depart exactly.
  void depart(NodeId v, std::uint32_t moving) {
    const std::uint8_t ptr = leap_ ? run_value(v) : ptr_[v];
    const std::uint32_t via_ptr = (moving + 1) / 2;
    const std::uint32_t cw_out =
        ptr == kClockwise ? via_ptr : moving - via_ptr;
    const std::uint32_t acw_out = moving - cw_out;
    if (moving & 1) {
      if (leap_) {
        flip_run_prefix(v, 1, kClockwise);
      } else {
        ptr_[v] = static_cast<std::uint8_t>(ptr ^ 1);
      }
    }
    if (cw_out > 0) cw_.push_back({v + 1 == n_ ? 0 : v + 1, cw_out});
    if (acw_out > 0) acw_.push_back({v == 0 ? n_ - 1 : v - 1, acw_out});
  }
  /// Merges held sites with the clockwise and anticlockwise arrival
  /// streams into the next sorted sites, counting visits on the way.
  void commit_round();

  // ---- kernel switching ----

  /// Dense kernel, on the retry schedule: promotes if the sites could leap
  /// at least kBreakEvenRounds and the pointer field is compact.
  void maybe_promote();
  /// Leap kernel: books `segments` ballistic segments (a sparse round's
  /// departures count one round each) advancing `site_rounds` in total, and
  /// demotes once a window of them averages under kBreakEvenRounds.
  void note_leap_work(std::uint64_t segments, std::uint64_t site_rounds);
  void demote();
  /// Resets the switching policy to its fresh state (construction, load).
  void reset_policy();

  /// Dense kernel: up to `budget` plain rounds, stopping early at the next
  /// policy check, at an auto-checkpoint mark, or (with `until_cover`) at
  /// coverage.
  void dense_rounds(std::uint64_t budget, bool until_cover);
  /// Leap kernel: one event — a ballistic leap of at most `budget` rounds,
  /// or a sparse round when no leap is possible.
  void leap_event(std::uint64_t budget, bool until_cover);

  // ---- ballistic fast-forward (leap kernel) ----

  /// Leaping requires every site to host exactly one agent (Definition 1's
  /// regime); with k sites and k agents that is sites_.size() == k_.
  bool leap_eligible() const { return sites_.size() == k_; }
  /// Rounds within which no two agents can interact: half the minimum
  /// cyclic gap between occupied sites (unbounded for a single agent).
  std::uint64_t safe_window() const;
  /// Min over agents of rounds until the agent reaches the end of its
  /// current pointer run (its reflection border).
  std::uint64_t min_segment() const;
  /// Advances every agent exactly `rounds` rounds (caller guarantees
  /// rounds <= safe_window()); piecewise-ballistic per agent.
  void leap_window(std::uint64_t rounds);
  /// Dry run of a single-segment leap of `rounds` (<= min_segment()):
  /// returns the exact cover round if the leap would complete coverage,
  /// 0 otherwise.
  std::uint64_t linear_cover_round(std::uint64_t rounds) const;

  struct CoverScan {
    std::uint64_t newly = 0;
    std::uint64_t last_round = 0;
  };
  /// Tallies the unvisited nodes among arrivals [a, b] (linear, no wrap) of
  /// a sweep from `origin` travelling `dir` whose first arrival lands at
  /// round t0 + 1; does not mutate (dry run).
  CoverScan scan_unvisited(NodeId a, NodeId b, NodeId origin, std::uint8_t dir,
                           std::uint64_t t0) const;
  /// Assigns exact first-visit rounds for the same arrivals and removes
  /// them from the unvisited arcs.
  void apply_cover(NodeId a, NodeId b, NodeId origin, std::uint8_t dir,
                   std::uint64_t t0);
  /// Fenwick + coverage updates for the `adv` arrivals of a sweep from
  /// `origin` travelling `dir`, starting at round t0 + 1.
  void sweep_visits(NodeId origin, std::uint8_t dir, std::uint64_t adv,
                    std::uint64_t t0);

  // ---- pointer-run map (leap kernel) ----
  // runs_ maps run start -> pointer value; runs partition [0, n) and never
  // wrap (node 0 always starts a run, possibly equal-valued with the last).

  /// The maximal constant runs (start, value) of the pointer field, from
  /// either kernel; node 0 always starts one.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pointer_runs() const;
  std::uint8_t run_value(NodeId v) const;
  /// Propagation budget from v (inclusive) in the direction of v's pointer
  /// value (written to *dir_out if non-null), truncated at the containing
  /// run's border (and at the artificial node-0 split, which only shortens
  /// leaps, never changes semantics).
  std::uint64_t segment_from(NodeId v, std::uint8_t* dir_out) const;
  /// Flips `len` nodes starting at v going `dir`; the caller guarantees the
  /// whole range lies inside v's run (so it never wraps).
  void flip_run_prefix(NodeId v, std::uint64_t len, std::uint8_t dir);
  void flip_range(NodeId lo, NodeId hi);

  /// Hop count of the arrival at u for a sweep leaving `origin` in `dir`;
  /// in [1, n] (a full-ring sweep ends back on the origin at distance n).
  std::uint64_t ring_dist(NodeId origin, NodeId u, std::uint8_t dir) const;

  void mark_visited(NodeId v, std::uint64_t round);
  /// Recomputes the unvisited_ arc map from first_visit_.
  void rebuild_unvisited_from_first_visit();

  NodeId fwd(NodeId v, std::uint64_t d) const {
    return static_cast<NodeId>((v + d) % n_);
  }
  NodeId bwd(NodeId v, std::uint64_t d) const {
    return static_cast<NodeId>((v + n_ - d % n_) % n_);
  }

  NodeId n_;
  std::uint32_t k_;

  // The state, shared by both kernels.
  std::uint64_t time_ = 0;
  NodeId covered_ = 0;
  std::vector<Site> sites_;  // sorted by node, counts > 0
  std::vector<std::uint64_t> first_visit_;
  bool leap_ = false;

  // Dense kernel storage (empty while the leap kernel is active).
  std::vector<std::uint8_t> ptr_;
  std::vector<std::uint64_t> visits_;

  // Leap kernel storage (empty while the dense kernel is active).
  std::map<NodeId, std::uint8_t> runs_;
  RangeAddFenwick visit_counts_;
  std::map<NodeId, NodeId> unvisited_;  // arc start -> arc end (inclusive)

  // Switching policy (scratch: never serialized).
  std::uint64_t next_check_ = 0;
  std::uint64_t retry_interval_ = 0;
  std::uint64_t window_segments_ = 0;
  std::uint64_t window_rounds_ = 0;

  // Per-round scratch: arrivals by travel direction, and the merge output.
  std::vector<Site> cw_;
  std::vector<Site> acw_;
  std::vector<Site> merged_;
};

}  // namespace rr::core
