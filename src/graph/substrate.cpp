#include "graph/substrate.hpp"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/row_source.hpp"

namespace rr::graph {

namespace {

/// Owned CSR over every row of `src`, in two streaming passes.
CsrGraph csr_from_rows(const RowSource& src) {
  const std::uint64_t n = src.num_nodes();
  std::vector<std::size_t> offsets(n + 1);
  for (std::uint64_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + src.degree(static_cast<NodeId>(v));
  }
  std::vector<NodeId> heads(offsets[n]);
  for (std::uint64_t v = 0; v < n; ++v) {
    src.row(static_cast<NodeId>(v), heads.data() + offsets[v]);
  }
  return CsrGraph(std::move(offsets), std::move(heads));
}

/// The owned substrate behind the views; nullptr (with `*error`) when
/// the descriptor does not name a buildable connected graph.
std::shared_ptr<const CsrGraph> build_substrate(const GraphDescriptor& d,
                                                std::string* error) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return std::shared_ptr<const CsrGraph>();
  };
  // The descriptor layer's parameter and cost checks apply to every
  // in-RAM substrate, streamed or built.
  if (!d.num_nodes()) return fail("invalid graph parameters");
  if (is_streamed_kind(d.kind)) {
    const auto src = streamed_rows(d, error);
    if (!src) return nullptr;
    return std::make_shared<const CsrGraph>(csr_from_rows(*src));
  }
  const auto g = d.build();
  if (!g) return fail("invalid graph parameters");
  if (!g->is_connected()) return fail("substrate must be connected");
  return std::make_shared<const CsrGraph>(*g);
}

struct InternTable {
  std::mutex mu;
  std::unordered_map<std::string, std::weak_ptr<const CsrGraph>> live;
};

InternTable& table() {
  static InternTable t;
  return t;
}

}  // namespace

std::optional<CsrGraph> intern_substrate(const GraphDescriptor& d,
                                         std::string* error) {
  InternTable& t = table();
  const std::string key = d.text();
  // Builds run under the lock: concurrent requests for one descriptor
  // must end up with one substrate, and a build is what they would
  // otherwise each pay for.
  std::lock_guard<std::mutex> lock(t.mu);
  if (const auto it = t.live.find(key); it != t.live.end()) {
    if (auto owned = it->second.lock()) {
      return CsrGraph::shared_view(std::move(owned));
    }
  }
  auto owned = build_substrate(d, error);
  if (!owned) return std::nullopt;
  // Drop entries whose substrates died, so the table tracks live graphs
  // rather than every descriptor ever seen.
  std::erase_if(t.live, [](const auto& entry) { return entry.second.expired(); });
  t.live[key] = owned;
  return CsrGraph::shared_view(std::move(owned));
}

bool substrate_interned(const GraphDescriptor& d) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.live.find(d.text());
  return it != t.live.end() && !it->second.expired();
}

CsrGraph connected_csr(const Graph& g) {
  RR_REQUIRE(g.is_connected(), "substrate must be connected");
  return CsrGraph(g);
}

}  // namespace rr::graph
