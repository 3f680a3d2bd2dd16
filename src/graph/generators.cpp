#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace rr::graph {

Graph ring(NodeId n) {
  RR_REQUIRE(n >= 3, "ring requires n >= 3");
  Graph g(n);
  // Insertion order fixes the port convention: the clockwise arc (to v+1)
  // is added first at every node, so it receives port 0 everywhere except
  // at node 0... insert edges so that each node's first port is clockwise.
  // Edge {v, v+1} gives v its clockwise arc and v+1 its anticlockwise arc;
  // adding edges in increasing v order yields, at node v>0: port 0 =
  // anticlockwise (from edge {v-1,v}), port 1 = clockwise. We instead add
  // all edges then normalize by rotating ports so port 0 is clockwise at
  // every node.
  for (NodeId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  for (NodeId v = 1; v < n; ++v) g.rotate_ports(v, 1);
  // Node 0: edges {0,1} then {n-1,0} were added, so port 0 = 1 (clockwise)
  // already; nodes 1..n-1 got anticlockwise first and were rotated.
  return g;
}

Graph path(NodeId n) {
  RR_REQUIRE(n >= 2, "path requires n >= 2");
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  // Normalize: at internal nodes port 0 points toward higher ids.
  for (NodeId v = 1; v + 1 < n; ++v) g.rotate_ports(v, 1);
  return g;
}

Graph grid(NodeId w, NodeId h) {
  RR_REQUIRE(w >= 2 && h >= 2, "grid requires w,h >= 2");
  Graph g(w * h);
  auto id = [w](NodeId x, NodeId y) { return y * w + x; };
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < h) g.add_edge(id(x, y), id(x, y + 1));
    }
  }
  return g;
}

Graph torus(NodeId w, NodeId h) {
  RR_REQUIRE(w >= 3 && h >= 3, "torus requires w,h >= 3");
  Graph g(w * h);
  auto id = [w](NodeId x, NodeId y) { return y * w + x; };
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId x = 0; x < w; ++x) {
      g.add_edge(id(x, y), id((x + 1) % w, y));
      g.add_edge(id(x, y), id(x, (y + 1) % h));
    }
  }
  return g;
}

Graph clique(NodeId n) {
  RR_REQUIRE(n >= 2, "clique requires n >= 2");
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

Graph star(NodeId n) {
  RR_REQUIRE(n >= 2, "star requires n >= 2");
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph binary_tree(NodeId n) {
  RR_REQUIRE(n >= 1, "binary_tree requires n >= 1");
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge((v - 1) / 2, v);
  return g;
}

Graph hypercube(std::uint32_t d) {
  RR_REQUIRE(d >= 1 && d < 25, "hypercube dimension out of range");
  const NodeId n = NodeId{1} << d;
  Graph g(n);
  // Add edges in bit order from each node's perspective: iterating bits in
  // the outer loop makes port i flip bit i at every node.
  for (std::uint32_t bit = 0; bit < d; ++bit) {
    for (NodeId v = 0; v < n; ++v) {
      NodeId u = v ^ (NodeId{1} << bit);
      if (v < u) g.add_edge(v, u);
    }
  }
  return g;
}

Graph lollipop(NodeId n, NodeId m) {
  RR_REQUIRE(m >= 3 && m <= n, "lollipop requires 3 <= m <= n");
  Graph g(n);
  for (NodeId u = 0; u < m; ++u) {
    for (NodeId v = u + 1; v < m; ++v) g.add_edge(u, v);
  }
  for (NodeId v = m; v < n; ++v) g.add_edge(v - 1, v);
  return g;
}

namespace {

bool try_random_regular(NodeId n, std::uint32_t d, Rng& rng, Graph& out) {
  // Configuration model: d stubs per node, random perfect matching, reject
  // self-loops and parallel edges.
  std::vector<NodeId> stubs(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs[static_cast<std::size_t>(v) * d + i] = v;
  }
  for (std::size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    NodeId u = stubs[i], v = stubs[i + 1];
    if (u == v) return false;
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(edges.begin(), edges.end());
  if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) return false;
  Graph g(n);
  for (auto [u, v] : edges) g.add_edge(u, v);
  if (!g.is_connected()) return false;
  out = std::move(g);
  return true;
}

}  // namespace

Graph random_regular(NodeId n, std::uint32_t d, std::uint64_t seed) {
  RR_REQUIRE(d >= 2 && d < n, "random_regular requires 2 <= d < n");
  RR_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0, "n*d must be even");
  Rng rng(seed);
  Graph g(n);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    if (try_random_regular(n, d, rng, g)) return g;
  }
  RR_UNREACHABLE("random_regular: rejection sampling did not converge");
}

Graph erdos_renyi(NodeId n, double p, std::uint64_t seed) {
  RR_REQUIRE(n >= 2, "erdos_renyi requires n >= 2");
  RR_REQUIRE(p > 0.0 && p <= 1.0, "p must be in (0,1]");
  Rng rng(seed);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.uniform01() < p) g.add_edge(u, v);
      }
    }
    if (g.is_connected()) return g;
  }
  RR_UNREACHABLE("erdos_renyi: did not produce a connected sample");
}

}  // namespace rr::graph
