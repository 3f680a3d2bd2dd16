#pragma once

// Compressed-sparse-row view of a Graph (flat graph substrate).
//
// `Graph` stores adjacency as vector<vector<NodeId>>: every neighbor access
// in a simulation round chases an outer pointer, so large instances walk the
// heap instead of a cache line. CsrGraph flattens the same port-ordered
// adjacency into two arrays — `offsets_` (n+1 prefix sums of degrees) and
// `neighbors_` (all 2|E| arc heads, port order preserved per node) — so a
// round over the occupied nodes does contiguous scans. The simulation
// engines build one at construction time and run every inner loop on it;
// `Graph` remains the mutable builder/query type (generators, permute_ports,
// BFS diagnostics).
//
// Port semantics are identical to Graph: `neighbor(v, p)` is the arc head
// reached from v through port p, and the cyclic successor of p is
// (p+1) mod deg(v). The CSR view is immutable; permute ports on the Graph
// *before* constructing the view.
//
// Storage comes in two modes behind the same pointer-based accessors:
// owned (built from a Graph or from streamed rows, arrays in member
// vectors) and view (arrays live elsewhere — an mmap'd graph image,
// graph/mmap_substrate.hpp, or an interned substrate, graph/substrate.hpp
// — and `backing_` keeps that storage alive). Copying an owned CsrGraph
// copies the arrays; copying a view shares them.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/require.hpp"
#include "graph/graph.hpp"

namespace rr::graph {

/// Fills `ports[0, degree)` with the row's port permutation sorted by
/// (head, port) — the sorted-port index behind port_to/has_edge, shared
/// by the in-RAM CSR and the rr-graph image builder.
void sort_row_ports(const NodeId* heads, std::uint32_t degree,
                    std::uint32_t* ports);

class CsrGraph {
 public:
  explicit CsrGraph(const Graph& g);

  /// Owned mode over prebuilt arrays: `offsets` (n+1 prefix sums,
  /// offsets[0] == 0) and `neighbors` (offsets[n] arc heads in port
  /// order); the sorted-port index is computed here.
  CsrGraph(std::vector<std::size_t> offsets, std::vector<NodeId> neighbors);

  /// View over externally owned arrays: `offsets` (n+1 prefix sums),
  /// `neighbors` (offsets[n] arc heads), and optionally `sorted_ports`
  /// (same length; nullptr degrades port_to/has_edge to a linear scan).
  /// `backing` is retained for the lifetime of this view and any copy of
  /// it (e.g. the shared_ptr of the mmap'd substrate the arrays live in).
  CsrGraph(const std::size_t* offsets, NodeId num_nodes,
           const NodeId* neighbors, const std::uint32_t* sorted_ports,
           std::shared_ptr<const void> backing);

  /// View over `owned`'s arrays that keeps `owned` alive: every copy
  /// of the result shares one adjacency (graph/substrate.hpp interns
  /// one per descriptor this way).
  static CsrGraph shared_view(std::shared_ptr<const CsrGraph> owned);

  // Owned mode must rebind the accessor pointers to the copied vectors;
  // view mode shares the underlying arrays (and their backing). Moves
  // keep the heap buffers, so the default member-wise move is correct.
  CsrGraph(const CsrGraph& other) { *this = other; }
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&&) noexcept = default;
  CsrGraph& operator=(CsrGraph&&) noexcept = default;

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_arcs() / 2; }
  /// Number of arcs in the directed symmetric version (2|E|).
  std::size_t num_arcs() const { return offsets_[num_nodes_]; }

  std::uint32_t degree(NodeId v) const {
    RR_REQUIRE(v < num_nodes(), "node out of range");
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Node reached from `v` through port `p`.
  NodeId neighbor(NodeId v, std::uint32_t p) const {
    RR_REQUIRE(v < num_nodes(), "node out of range");
    RR_REQUIRE(p < offsets_[v + 1] - offsets_[v], "port out of range");
    return neighbors_[offsets_[v] + p];
  }

  /// Neighbors of `v` in port order.
  std::span<const NodeId> neighbors(NodeId v) const {
    RR_REQUIRE(v < num_nodes(), "node out of range");
    return {neighbors_ + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // ---- unchecked hot-path accessors (engine inner loops) ----

  /// Pointer to the port-ordered neighbor row of `v`; valid for
  /// [0, degree(v)) without bounds checks.
  const NodeId* row(NodeId v) const { return neighbors_ + offsets_[v]; }
  /// Base of the flat arc-head array; engines that cache per-node row
  /// offsets (graph::NodeState::row_begin) index it directly and skip the
  /// offsets_ lookup of row().
  const NodeId* arcs() const { return neighbors_; }
  /// Offset of v's neighbor row in arcs() (what NodeState::row_begin
  /// caches at engine construction).
  std::size_t row_offset(NodeId v) const { return offsets_[v]; }
  std::uint32_t degree_unchecked(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Smallest port at `v` leading to `u` (paper's port_v(u)); O(log deg v)
  /// via the neighbor-sorted port index (Graph::port_to is O(deg)).
  /// Requires the edge to exist.
  std::uint32_t port_to(NodeId v, NodeId u) const;

  /// O(log deg v) membership test.
  bool has_edge(NodeId v, NodeId u) const;

 private:
  // Owned-mode storage (empty in view mode).
  std::vector<std::size_t> offsets_store_;  // n+1 prefix sums of degrees
  std::vector<NodeId> neighbors_store_;     // arc heads, port order per node
  // Per-node port permutation sorted by (neighbor, port): sorted_ports_[i]
  // for i in [offsets_[v], offsets_[v+1]) enumerates v's ports so that
  // neighbors_[offsets_[v] + sorted_ports_[i]] is nondecreasing, with ties
  // (parallel edges) broken by smaller port. Supports binary-search
  // port_to/has_edge without disturbing the cyclic port order.
  std::vector<std::uint32_t> ports_store_;

  std::shared_ptr<const void> backing_;  // view mode: keeps the arrays alive

  const std::size_t* offsets_ = nullptr;
  const NodeId* neighbors_ = nullptr;
  const std::uint32_t* sorted_ports_ = nullptr;  // nullptr: linear port_to
  NodeId num_nodes_ = 0;
};

}  // namespace rr::graph
