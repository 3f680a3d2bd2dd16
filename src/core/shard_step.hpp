#pragma once

// Shared pieces of the rotor-router round kernel (core layer).
//
// The rotor-router engine (core::RotorRouter, at every shard count)
// runs one per-node round: move the non-held agents out along
// consecutive ports from the rotor pointer, advance the pointer, commit
// arrivals. This header holds that round's per-node pieces:
//
//  * distribute_exits — the vectorized exit loop. c agents leaving a
//    degree-d node sweep the ports cyclically, so every port receives
//    floor(c/d) agents plus one for the first (c mod d) ports after the
//    pointer. Emitting floor(c/d) per port directly turns a k-agent
//    pile-up (paper Sec. 2, all-on-one deployments) from O(k) arrival
//    increments into O(d), and the remainder loop is the seed engine's
//    loop unchanged — so sparse traffic pays one extra compare.
//
//  * VisitStats — the per-node visit bookkeeping (n_v, e_v, first/last
//    visit) packed into one 32-byte stride. An arrival commit used to
//    touch four parallel uint64 arrays (four cache lines per node); now
//    it touches one.
//
//  * prefetch_ro — gather hints for the occupied-node scan and the
//    commit; the round is memory-latency-bound on scattered node state,
//    so overlapping the misses is worth more than any arithmetic tuning.
//    core::RotorRouter issues them in three dependent stages (node record,
//    arc row and stats line, target record) once its state outgrows
//    kCacheResidentStateBytes, and one node hint otherwise.

#include <cstdint>

#include "graph/partition.hpp"
#include "sim/engine.hpp"

namespace rr::core {

/// Per-node visit statistics in one stride. `first_visit` uses
/// sim::kNotCovered as the "never" sentinel, matching the engine API.
struct VisitStats {
  std::uint64_t visits = 0;       ///< n_v(t), incl. initial placement
  std::uint64_t exits = 0;        ///< e_v(t)
  std::uint64_t first_visit = sim::kNotCovered;
  std::uint64_t last_visit = 0;
};

/// Read-prefetch `addr` into cache; a hint, never required for
/// correctness.
inline void prefetch_ro(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 1);
#else
  (void)addr;
#endif
}

/// Moves `moving` agents out of a node with port row `row`, degree `deg`
/// and rotor pointer `ptr`: deposit(p, u, c) is called with the exit port,
/// the arrival target and a positive count, and the advanced pointer is
/// returned. The port lets shard-parallel callers classify the arrival in
/// O(1) via Partition::arc_slot. Full sweeps are batched (floor(moving/
/// deg) per port in port order 0..d, a reordering of the per-agent
/// sequence with identical totals); the remainder walks ports ptr,
/// ptr+1, ... as in the paper's Sec. 1.3 rule.
template <typename Deposit>
inline std::uint32_t distribute_exits(const std::uint32_t* row,
                                      std::uint32_t deg, std::uint32_t ptr,
                                      std::uint32_t moving,
                                      Deposit&& deposit) {
  if (moving >= deg) {
    const std::uint32_t cycles = moving / deg;
    for (std::uint32_t p = 0; p < deg; ++p) deposit(p, row[p], cycles);
    moving -= cycles * deg;
  }
  for (std::uint32_t i = 0; i < moving; ++i) {
    deposit(ptr, row[ptr], 1);
    ptr = ptr + 1 == deg ? 0 : ptr + 1;
  }
  return ptr;
}

/// Applies a committed arrival of `a` agents to node `nu`/`st` at round
/// `time` — count, n_v, last-visit, first-visit — and reports whether the
/// node was newly covered. n_v counts arrivals, and the first visit is
/// the commit round. The caller handles occupied-list membership
/// (checked *before* the count update).
inline bool commit_node_arrival(graph::NodeState& nu, VisitStats& st,
                                std::uint64_t time, std::uint32_t a) {
  nu.count += a;
  st.visits += a;
  st.last_visit = time;
  if (st.first_visit == sim::kNotCovered) {
    st.first_visit = time;
    return true;
  }
  return false;
}

}  // namespace rr::core
