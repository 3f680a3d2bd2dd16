#include "graph/csr_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace rr::graph {

void sort_row_ports(const NodeId* heads, std::uint32_t degree,
                    std::uint32_t* ports) {
  std::iota(ports, ports + degree, 0u);
  std::sort(ports, ports + degree, [heads](std::uint32_t a, std::uint32_t b) {
    return heads[a] != heads[b] ? heads[a] < heads[b] : a < b;
  });
}

namespace {

std::vector<std::size_t> degree_prefix_sums(const Graph& g) {
  std::vector<std::size_t> offsets(static_cast<std::size_t>(g.num_nodes()) + 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    offsets[v + 1] = offsets[v] + g.degree(v);
  }
  return offsets;
}

std::vector<NodeId> flat_rows(const Graph& g) {
  std::vector<NodeId> heads;
  heads.reserve(g.num_arcs());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = g.neighbors(v);
    heads.insert(heads.end(), row.begin(), row.end());
  }
  return heads;
}

}  // namespace

CsrGraph::CsrGraph(const Graph& g)
    : CsrGraph(degree_prefix_sums(g), flat_rows(g)) {}

CsrGraph::CsrGraph(std::vector<std::size_t> offsets,
                   std::vector<NodeId> neighbors)
    : offsets_store_(std::move(offsets)),
      neighbors_store_(std::move(neighbors)) {
  RR_REQUIRE(!offsets_store_.empty() && offsets_store_.front() == 0 &&
                 offsets_store_.back() == neighbors_store_.size(),
             "CsrGraph offsets must prefix-sum the neighbor array");
  num_nodes_ = static_cast<NodeId>(offsets_store_.size() - 1);
  ports_store_.resize(neighbors_store_.size());
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::size_t begin = offsets_store_[v];
    sort_row_ports(neighbors_store_.data() + begin,
                   static_cast<std::uint32_t>(offsets_store_[v + 1] - begin),
                   ports_store_.data() + begin);
  }
  offsets_ = offsets_store_.data();
  neighbors_ = neighbors_store_.data();
  sorted_ports_ = ports_store_.data();
}

CsrGraph::CsrGraph(const std::size_t* offsets, NodeId num_nodes,
                   const NodeId* neighbors, const std::uint32_t* sorted_ports,
                   std::shared_ptr<const void> backing)
    : backing_(std::move(backing)),
      offsets_(offsets),
      neighbors_(neighbors),
      sorted_ports_(sorted_ports),
      num_nodes_(num_nodes) {
  RR_REQUIRE(offsets_ != nullptr && neighbors_ != nullptr,
             "CsrGraph view requires offsets and neighbors arrays");
}

CsrGraph CsrGraph::shared_view(std::shared_ptr<const CsrGraph> owned) {
  const CsrGraph& g = *owned;
  return CsrGraph(g.offsets_, g.num_nodes_, g.neighbors_, g.sorted_ports_,
                  std::move(owned));
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  offsets_store_ = other.offsets_store_;
  neighbors_store_ = other.neighbors_store_;
  ports_store_ = other.ports_store_;
  backing_ = other.backing_;
  num_nodes_ = other.num_nodes_;
  if (backing_ != nullptr) {  // view: share the external arrays
    offsets_ = other.offsets_;
    neighbors_ = other.neighbors_;
    sorted_ports_ = other.sorted_ports_;
  } else {  // owned: rebind to this object's copies
    offsets_ = offsets_store_.data();
    neighbors_ = neighbors_store_.data();
    sorted_ports_ = ports_store_.empty() ? nullptr : ports_store_.data();
  }
  return *this;
}

std::uint32_t CsrGraph::port_to(NodeId v, NodeId u) const {
  RR_REQUIRE(v < num_nodes() && u < num_nodes(), "node out of range");
  const NodeId* heads = neighbors_ + offsets_[v];
  const std::uint32_t deg = degree_unchecked(v);
  if (sorted_ports_ == nullptr) {
    for (std::uint32_t p = 0; p < deg; ++p) {
      if (heads[p] == u) return p;
    }
    RR_UNREACHABLE("port_to: no edge between the given nodes");
  }
  const std::uint32_t* first = sorted_ports_ + offsets_[v];
  const std::uint32_t* last = sorted_ports_ + offsets_[v + 1];
  const std::uint32_t* it = std::lower_bound(
      first, last, u,
      [heads](std::uint32_t port, NodeId target) { return heads[port] < target; });
  RR_REQUIRE(it != last && heads[*it] == u,
             "port_to: no edge between the given nodes");
  return *it;  // ties sort by port, so this is the smallest matching port
}

bool CsrGraph::has_edge(NodeId v, NodeId u) const {
  if (v >= num_nodes() || u >= num_nodes()) return false;
  const NodeId* heads = neighbors_ + offsets_[v];
  const std::uint32_t deg = degree_unchecked(v);
  if (sorted_ports_ == nullptr) {
    for (std::uint32_t p = 0; p < deg; ++p) {
      if (heads[p] == u) return true;
    }
    return false;
  }
  const std::uint32_t* first = sorted_ports_ + offsets_[v];
  const std::uint32_t* last = sorted_ports_ + offsets_[v + 1];
  const std::uint32_t* it = std::lower_bound(
      first, last, u,
      [heads](std::uint32_t port, NodeId target) { return heads[port] < target; });
  return it != last && heads[*it] == u;
}

}  // namespace rr::graph
