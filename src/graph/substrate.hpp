#pragma once

// Interned graph substrates (graph layer): one immutable CSR per graph.
//
// In the paper's model (Sec. 1.3) a configuration is the port orders
// rho_v, the pointers pi_v and the agents, and rho_v is fixed by the
// graph. The adjacency is therefore immutable and every engine on one
// graph can step on the same arrays; only pointers, counts and visit
// statistics are per-run state. intern_substrate hands out one
// connectivity-checked CsrGraph per descriptor text:
//
//   - "ring N" and "torus W H" stream their rows arithmetically
//     (graph/row_source.hpp) and are connected by construction, so they
//     need no Graph and no BFS;
//   - every other kind builds through GraphDescriptor::build and is
//     checked for connectivity once per substrate, not once per engine.
//
// The result is a view-mode CsrGraph sharing the interned arrays. The
// process-wide table holds only weak references, so the arrays are
// freed with the last engine stepping on them and the next request
// rebuilds: there is no retention policy to tune. Registry-built rotor,
// eulerian and walks engines (sessions, rehydrations, resumes, the
// shards of one run) all share through here.
// Thread-safe.

#include <optional>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/graph.hpp"

namespace rr::graph {

/// The interned substrate for `d`: a connected graph's CSR, shared with
/// every other live holder of a substrate of the same descriptor text.
/// nullopt, with a one-line reason in `*error` when given, on invalid or
/// over-cap parameters or a disconnected or edgeless graph — never an
/// abort (descriptors are external input).
std::optional<CsrGraph> intern_substrate(const GraphDescriptor& d,
                                         std::string* error = nullptr);

/// True while some holder keeps the interned substrate of `d` alive.
bool substrate_interned(const GraphDescriptor& d);

/// CSR of a caller-built graph for the engines' Graph constructors:
/// requires (RR_REQUIRE) that `g` is connected, the precondition every
/// interned substrate already carries.
CsrGraph connected_csr(const Graph& g);

}  // namespace rr::graph
