#pragma once

// Row generators for the two CSR builders of the graph layer: the in-RAM
// interned substrate (graph/substrate.cpp) and the on-disk rr-graph image
// (graph/mmap_substrate.cpp). A RowSource yields each node's port-ordered
// neighbor row, so both builders make streaming passes over it instead
// of holding a Graph.
//
// "ring N" and "torus W H" have arithmetic sources that reproduce the
// exact port conventions of graph/generators.cpp (a streamed substrate
// must be indistinguishable from CsrGraph(generators::ring(n)), which
// tests/substrate_test.cpp and tests/mmap_substrate_test.cpp pin row by
// row). Both kinds are connected by construction. Every other kind
// reads its rows off a built Graph.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "graph/descriptor.hpp"
#include "graph/graph.hpp"

namespace rr::graph {

class RowSource {
 public:
  virtual ~RowSource() = default;
  virtual std::uint64_t num_nodes() const = 0;
  virtual std::uint64_t num_arcs() const = 0;
  virtual std::uint32_t degree(NodeId v) const = 0;
  /// Writes the degree(v) neighbors of v, in port order, to out[0..).
  virtual void row(NodeId v, NodeId* out) const = 0;
};

/// generators.cpp ring: port 0 clockwise (v+1), port 1 anticlockwise.
class RingSource final : public RowSource {
 public:
  explicit RingSource(std::uint64_t n) : n_(n) {}
  std::uint64_t num_nodes() const override { return n_; }
  std::uint64_t num_arcs() const override { return 2 * n_; }
  std::uint32_t degree(NodeId) const override { return 2; }
  void row(NodeId v, NodeId* out) const override {
    out[0] = static_cast<NodeId>((v + 1) % n_);
    out[1] = static_cast<NodeId>((v + n_ - 1) % n_);
  }

 private:
  std::uint64_t n_;
};

/// generators.cpp torus: node id y*w + x; the port order falls out of
/// the edge-insertion order (per cell: right then down, cells scanned in
/// (y, x) order), which wraps differently on the x=0 and y=0 borders.
class TorusSource final : public RowSource {
 public:
  TorusSource(std::uint64_t w, std::uint64_t h) : w_(w), h_(h) {}
  std::uint64_t num_nodes() const override { return w_ * h_; }
  std::uint64_t num_arcs() const override { return 4 * w_ * h_; }
  std::uint32_t degree(NodeId) const override { return 4; }
  void row(NodeId v, NodeId* out) const override {
    const std::uint64_t x = v % w_;
    const std::uint64_t y = v / w_;
    const auto id = [this](std::uint64_t xx, std::uint64_t yy) {
      return static_cast<NodeId>(yy * w_ + xx);
    };
    const NodeId up = id(x, y == 0 ? h_ - 1 : y - 1);
    const NodeId down = id(x, (y + 1) % h_);
    const NodeId left = id(x == 0 ? w_ - 1 : x - 1, y);
    const NodeId right = id((x + 1) % w_, y);
    const auto put = [out](NodeId a, NodeId b, NodeId c, NodeId d) {
      out[0] = a;
      out[1] = b;
      out[2] = c;
      out[3] = d;
    };
    if (x > 0 && y > 0) {
      put(up, left, right, down);
    } else if (x == 0 && y > 0) {
      put(up, right, down, left);
    } else if (x > 0) {  // y == 0
      put(left, right, down, up);
    } else {  // origin
      put(right, down, left, up);
    }
  }

 private:
  std::uint64_t w_, h_;
};

/// Every other descriptor kind: rows straight off a built Graph (the
/// descriptor layer's cost caps bound this path).
class GraphSource final : public RowSource {
 public:
  explicit GraphSource(const Graph& g) : g_(g) {}
  std::uint64_t num_nodes() const override { return g_.num_nodes(); }
  std::uint64_t num_arcs() const override { return g_.num_arcs(); }
  std::uint32_t degree(NodeId v) const override { return g_.degree(v); }
  void row(NodeId v, NodeId* out) const override {
    for (const NodeId u : g_.neighbors(v)) *out++ = u;
  }

 private:
  const Graph& g_;
};

/// True for the kinds with an arithmetic row source.
inline bool is_streamed_kind(const std::string& kind) {
  return kind == "ring" || kind == "torus";
}

/// The arithmetic source of a streamed kind. Checks only the generator's
/// own preconditions (ring n >= 3; torus sides >= 3, at most 2^31
/// nodes), not the descriptor layer's in-memory build cap, so the image
/// builder can stream graphs far larger than a Graph could hold. nullptr
/// with `*error` set on invalid arguments or a kind that is not streamed.
inline std::unique_ptr<RowSource> streamed_rows(const GraphDescriptor& d,
                                                std::string* error) {
  const auto arg = [&d](std::size_t i) -> std::optional<std::uint64_t> {
    const auto v = parse_u64(d.args[i]);
    if (!v || *v > (1ull << 31)) return std::nullopt;
    return v;
  };
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return std::unique_ptr<RowSource>();
  };
  if (d.kind == "ring" && d.args.size() == 1) {
    const auto n = arg(0);
    if (!n || *n < 3) return fail("ring requires 3 <= n <= 2^31");
    return std::make_unique<RingSource>(*n);
  }
  if (d.kind == "torus" && d.args.size() == 2) {
    const auto w = arg(0);
    const auto h = arg(1);
    if (!w || !h || *w < 3 || *h < 3 || *w * *h > (1ull << 31)) {
      return fail("torus requires 3 <= w,h and w*h <= 2^31");
    }
    return std::make_unique<TorusSource>(*w, *h);
  }
  return fail("descriptor kind has no streamed row source");
}

}  // namespace rr::graph
