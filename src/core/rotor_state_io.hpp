#pragma once

// The rotor-router checkpoint field set, written once.
//
// core::RotorRouter (at every shard count) and the distributed
// coordinator (core::DistributedRotorRouter, which gathers its workers'
// rows) are the same dynamical system over the same packed state
// (graph::NodeState + core::VisitStats), and their checkpoints are
// interchangeable — both report engine_name() "rotor-router" and must
// serialize the byte-identical field set. Both delegate their
// serialize_state/deserialize_state here, so a field added for one is
// automatically read and written by the other (drift would otherwise
// silently break resuming a distributed checkpoint in-process, or the
// reverse).
//
// The helpers are templated over the per-node array types so the same
// code serves owned std::vector state and graph::MappedArray views into
// an mmap'd substrate image (graph/mmap_substrate.hpp); both expose
// size() and operator[].

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/shard_step.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "sim/state_io.hpp"

namespace rr::core {

/// Writes the full rotor-router field set: time, sparse agent sites
/// (ascending node id), pointer fields, visit statistics. The per-node
/// fields are recorded as lazy views straight over the engine arrays —
/// nothing O(n) is materialized, so checkpointing an mmap-backed 1e8-node
/// engine allocates only the sparse site list (the codecs stream the
/// views; the engine outlives the writer inside write_checkpoint).
template <typename NodeArray, typename StatsArray>
inline void serialize_rotor_state(sim::StateWriter& out, std::uint64_t time,
                                  const NodeArray& node,
                                  const std::vector<std::uint32_t>& initial_pointers,
                                  const StatsArray& stats) {
  const std::size_t n = node.size();
  out.field_u64("time", time);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sites;
  for (std::size_t v = 0; v < n; ++v) {
    if (node[v].count > 0) sites.emplace_back(v, node[v].count);
  }
  out.field_pairs("agents", sites);
  const std::uint32_t node_stride = sizeof(node[0]);
  const std::uint32_t stats_stride = sizeof(stats[0]);
  out.field_list_strided("pointers", n, &node[0].pointer, node_stride, 4);
  out.field_list_strided("initial_pointers", n, initial_pointers.data(),
                         sizeof(std::uint32_t), 4);
  out.field_list_strided("visits", n, &stats[0].visits, stats_stride, 8);
  out.field_list_strided("exits", n, &stats[0].exits, stats_stride, 8);
  out.field_list_strided("first_visit", n, &stats[0].first_visit,
                         stats_stride, 8);
  out.field_list_strided("last_visit", n, &stats[0].last_visit, stats_stride,
                         8);
}

/// The engine-agnostic result of a restore: everything except the
/// engine's own occupied bookkeeping, which each engine rebuilds from
/// the repopulated counts (one list per shard or worker).
struct RestoredRotorState {
  std::uint64_t time = 0;
  std::uint32_t num_agents = 0;
  graph::NodeId covered = 0;
  /// Occupied nodes in ascending id order (counts already applied).
  std::vector<graph::NodeId> sites;
};

namespace detail {

/// The six lockstep per-node fields of the rotor-router field set, in
/// serialize_rotor_state's declaration order, with each one's
/// construction-time default value (see assume_defaults below).
inline constexpr std::size_t kRotorFields = 6;
inline constexpr const char* kRotorFieldKeys[kRotorFields] = {
    "pointers", "initial_pointers", "visits",
    "exits",    "first_visit",      "last_visit"};
inline constexpr std::uint64_t kRotorFieldDefaults[kRotorFields] = {
    0, 0, 0, 0, sim::kNotCovered, 0};

/// Applies the six lockstep cursors over every node: validates degrees,
/// writes node/stats/initial_pointers, counts covered nodes. The cursors
/// must produce exactly one element per node each (checked via
/// finished()). `allow_skip` gates the assume-defaults constant-run
/// elision. nullopt on any malformed or inconsistent stream; the state
/// may then be partially written (the StateIO failed-restore contract).
template <typename NodeArray, typename StatsArray>
inline std::optional<graph::NodeId> apply_rotor_fields(
    std::optional<sim::U64ListCursor>* cursors, const graph::CsrGraph& csr,
    NodeArray& node, std::vector<std::uint32_t>& initial_pointers,
    StatsArray& stats, bool allow_skip) {
  const graph::NodeId n = csr.num_nodes();
  graph::NodeId covered = 0;
  sim::U64ListCursor::Run run[kRotorFields];
  for (graph::NodeId v = 0; v < n;) {
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
        const graph::NodeId u = v + static_cast<graph::NodeId>(j);
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
        if (run[4].value != sim::kNotCovered) ++covered;
        for (std::size_t k = 0; k < kRotorFields; ++k) {
          run[k].value += run[k].delta;
        }
      }
    } else {
      // All six runs are constant defaults over the span; covered
      // gains nothing (first_visit is the sentinel) and every store
      // would rewrite the value already there.
      for (std::size_t k = 0; k < kRotorFields; ++k) {
        run[k].value += run[k].delta * span;  // delta == 0, kept for form
      }
    }
    for (std::size_t k = 0; k < kRotorFields; ++k) run[k].len -= span;
    v += static_cast<graph::NodeId>(span);
  }
  for (std::size_t k = 0; k < kRotorFields; ++k) {
    if (!cursors[k]->finished()) return std::nullopt;
  }
  return covered;
}

}  // namespace detail

/// Validates and applies a serialize_rotor_state document against `csr`'s
/// topology. On success node/stats/initial_pointers hold the restored
/// state (counts and arrival accumulators reset and repopulated from the
/// sparse sites); on failure returns nullopt and the outputs are
/// unspecified (the StateIO contract for a failed restore).
///
/// `assume_defaults`: the caller guarantees node/stats/initial_pointers
/// currently hold the construction-time defaults at every node (count,
/// arrivals, pointer, visits, exits, last_visit all 0; first_visit the
/// never-covered sentinel). Constant runs carrying exactly those values
/// are then skipped instead of rewritten, so restoring a lightly-evolved
/// state into a freshly opened substrate image touches only the pages
/// that actually differ from the image — the resume path stays
/// out-of-core instead of dirtying the whole COW mapping. Skipped
/// pointer runs are value 0, which a connected graph's degree >= 1
/// always admits, so validation is preserved.
template <typename NodeArray, typename StatsArray>
inline std::optional<RestoredRotorState> deserialize_rotor_state(
    const sim::StateReader& in, const graph::CsrGraph& csr,
    NodeArray& node, std::vector<std::uint32_t>& initial_pointers,
    StatsArray& stats, bool assume_defaults = false) {
  const graph::NodeId n = csr.num_nodes();
  const auto time = in.u64("time");
  const auto sites = in.pairs("agents");
  if (!time || !sites || sites->empty()) return std::nullopt;
  std::uint64_t total_agents = 0;
  for (const auto& [v, c] : *sites) {
    if (v >= n || c == 0 || c > ~std::uint32_t{0}) return std::nullopt;
    total_agents += c;
  }
  if (total_agents > ~std::uint32_t{0}) return std::nullopt;

  // The six per-node fields decode as lockstep run cursors: node v's
  // whole record (pointer, stats) is validated and written in one
  // touch, so the restore makes a single pass over the engine's state
  // memory instead of six, and spans where every field sits in a
  // default-valued constant run are skipped outright under
  // assume_defaults. No O(n) intermediates; a failed stream leaves the
  // state partially written (allowed by the StateIO contract).
  RestoredRotorState restored;
  restored.time = *time;
  restored.num_agents = static_cast<std::uint32_t>(total_agents);
  initial_pointers.resize(n);
  std::optional<sim::U64ListCursor> cursors[detail::kRotorFields];
  for (std::size_t k = 0; k < detail::kRotorFields; ++k) {
    cursors[k] = in.u64_list_cursor(detail::kRotorFieldKeys[k], n);
    if (!cursors[k]) return std::nullopt;
  }
  const auto covered = detail::apply_rotor_fields(
      cursors, csr, node, initial_pointers, stats,
      /*allow_skip=*/assume_defaults && n > 1);
  if (!covered) return std::nullopt;
  restored.covered = *covered;

  restored.sites.reserve(sites->size());
  for (const auto& [v, c] : *sites) {
    node[v].count = static_cast<std::uint32_t>(c);
    restored.sites.push_back(static_cast<graph::NodeId>(v));
  }
  return restored;
}

}  // namespace rr::core
