#pragma once

// Eulerian circuits of the directed symmetric version G (S1 extension).
//
// Background for the Yanovski et al. substrate result: the single-agent
// rotor-router stabilizes to a traversal of a directed Eulerian circuit of
// G = (V, {(u,v),(v,u) : {u,v} in E}), which always exists for connected G.
// This module constructs such a circuit directly (Hierholzer's algorithm)
// and provides verification helpers used to check that the rotor-router's
// locked-in cycle is indeed Eulerian.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace rr::graph {

/// One arc of the directed symmetric version, identified by its tail and
/// the port at the tail.
struct Arc {
  NodeId tail;
  std::uint32_t port;

  NodeId head(const Graph& g) const { return g.neighbor(tail, port); }
  bool operator==(const Arc&) const = default;
};

/// Global arc id: offsets[tail] + port (matches limit_cycle.cpp numbering).
std::vector<std::size_t> arc_offsets(const Graph& g);

/// Constructs a directed Eulerian circuit of the symmetric version of `g`
/// starting at `start` using Hierholzer's algorithm. The result has
/// exactly 2|E| arcs; consecutive arcs are incident (head == next tail)
/// and the circuit closes. Requires `g` connected with at least one edge.
std::vector<Arc> eulerian_circuit(const Graph& g, NodeId start);

/// As above over a CSR that is already known to be connected (an interned
/// substrate, graph/substrate.hpp); a disconnected one fails the circuit
/// length check.
std::vector<Arc> eulerian_circuit(const CsrGraph& g, NodeId start);

/// Checks that `circuit` is a directed Eulerian circuit of `g`: correct
/// length, incidence-chained, closed, and covering every arc exactly once.
bool is_eulerian_circuit(const Graph& g, const std::vector<Arc>& circuit);

/// Records the arcs traversed by a single rotor-router agent over `steps`
/// rounds from `start` (pointers all initially 0). Convenience used to
/// compare the locked-in rotor walk against eulerian_circuit().
std::vector<Arc> rotor_walk_arcs(const Graph& g, NodeId start,
                                 std::uint64_t steps);

}  // namespace rr::graph
