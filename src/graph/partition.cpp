#include "graph/partition.hpp"

#include <algorithm>

namespace rr::graph {

Partition::Partition(const CsrGraph& g, std::uint32_t shards) {
  const NodeId n = g.num_nodes();
  RR_REQUIRE(n > 0, "cannot partition an empty graph");
  if (shards == 0) shards = 1;
  if (shards > n) shards = n;
  frontier_.resize(shards);
  frontier_owners_.resize(shards);
  if (shards == 1) {
    // One shard owns every row: no weights to balance, no frontier and no
    // arc slots, so construction touches nothing of the graph (an
    // image-backed engine stays O(agents) pages).
    starts_ = {0, n};
    return;
  }

  // Weighted prefix boundaries: shard s ends at the smallest row whose
  // cumulative weight reaches total * (s+1) / shards. Weights are 1 + deg
  // so the split tracks per-round work (scan cost + exit fan-out). The
  // max(.., previous + 1) keeps every shard non-empty even when a single
  // hub node carries most of the weight.
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += 1 + g.degree_unchecked(v);

  starts_.assign(shards + 1, 0);
  std::uint64_t prefix = 0;
  NodeId v = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    starts_[s] = v;
    const std::uint64_t target = total * (s + 1) / shards;
    // Leave enough rows for the remaining shards to get one each.
    const NodeId ceiling = n - (shards - 1 - s);
    while (v < ceiling && (prefix < target || v == starts_[s])) {
      prefix += 1 + g.degree_unchecked(v);
      ++v;
    }
  }
  starts_[shards] = n;

  for (std::uint32_t s = 0; s < shards; ++s) {
    auto& fr = frontier_[s];
    for (NodeId w = starts_[s]; w < starts_[s + 1]; ++w) {
      for (NodeId u : g.neighbors(w)) {
        if (u < starts_[s] || u >= starts_[s + 1]) fr.push_back(u);
      }
    }
    std::sort(fr.begin(), fr.end());
    fr.erase(std::unique(fr.begin(), fr.end()), fr.end());
  }

  arc_slots_.resize(g.num_arcs());
  for (std::uint32_t s = 0; s < shards; ++s) {
    frontier_owners_[s].resize(frontier_[s].size());
    for (std::uint32_t slot = 0; slot < frontier_[s].size(); ++slot) {
      frontier_owners_[s][slot] = owner(frontier_[s][slot]);
    }
    for (NodeId w = starts_[s]; w < starts_[s + 1]; ++w) {
      const std::size_t base = g.row_offset(w);
      const auto row = g.neighbors(w);
      for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(row.size()); ++p) {
        const NodeId u = row[p];
        arc_slots_[base + p] = (u >= starts_[s] && u < starts_[s + 1])
                                   ? kInShard
                                   : frontier_slot(s, u);
      }
    }
  }
}

std::uint32_t Partition::owner(NodeId v) const {
  RR_REQUIRE(v < num_nodes(), "node out of range");
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), v);
  return static_cast<std::uint32_t>(it - starts_.begin() - 1);
}

std::uint32_t Partition::frontier_slot(std::uint32_t s, NodeId u) const {
  const auto& fr = frontier_[s];
  const auto it = std::lower_bound(fr.begin(), fr.end(), u);
  RR_ASSERT(it != fr.end() && *it == u, "node not on shard frontier");
  return static_cast<std::uint32_t>(it - fr.begin());
}

}  // namespace rr::graph
