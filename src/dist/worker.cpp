#include "dist/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/shard_step.hpp"
#include "dist/protocol.hpp"
#include "graph/csr_graph.hpp"
#include "graph/descriptor.hpp"
#include "graph/partition.hpp"
#include "graph/substrate.hpp"
#include "sim/engine.hpp"

namespace rr::dist {

namespace {

using graph::NodeId;
using graph::NodeState;

/// The full shard state + round kernel of one worker (see worker.hpp).
class WorkerNode {
 public:
  explicit WorkerNode(int fd) : fd_(fd) {}

  /// False on a rejected init (malformed descriptor or inconsistent
  /// fields) — the worker exits instead of serving garbage.
  bool init(const DistMsg& m) {
    const auto d = graph::GraphDescriptor::parse(m.text);
    if (!d) return false;
    auto csr = graph::intern_substrate(*d);
    if (!csr) return false;
    csr_ = std::move(*csr);
    const std::uint64_t workers = m.value;
    if (workers == 0 || workers > csr_.num_nodes()) return false;
    part_ = std::make_unique<graph::Partition>(
        csr_, static_cast<std::uint32_t>(workers));
    if (m.shard >= part_->num_shards()) return false;
    me_ = static_cast<std::uint32_t>(m.shard);
    single_ = part_->num_shards() == 1;
    spill_batch_ = m.value2 == 0 ? 1 : m.value2;

    const NodeId n = csr_.num_nodes();
    node_.assign(n, NodeState{});
    stats_.assign(n, core::VisitStats{});
    for (NodeId v = 0; v < n; ++v) {
      node_[v].degree = csr_.degree_unchecked(v);
      node_[v].row_begin = csr_.row_offset(v);
    }
    if (m.lists.size() != 1) return false;
    const auto& pointers = m.lists[0];
    if (!pointers.empty()) {
      if (pointers.size() != n) return false;
      for (NodeId v = 0; v < n; ++v) {
        if (pointers[v] >= node_[v].degree) return false;
        node_[v].pointer = static_cast<std::uint32_t>(pointers[v]);
      }
    }
    initial_pointers_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      initial_pointers_[v] = node_[v].pointer;
    }
    // Agent multiset as (site, count): counts and the n_v(0) visit credit
    // are order-independent, exactly as place_rotor_agents applies them.
    for (const auto& [site, count] : m.pairs) {
      if (site >= n || count == 0 || count > ~std::uint32_t{0}) return false;
      NodeState& ns = node_[site];
      if (ns.count != 0) return false;  // sites arrive deduplicated
      ns.count = static_cast<std::uint32_t>(count);
      stats_[site].visits = count;
      stats_[site].first_visit = 0;
      if (owner_is_me(static_cast<NodeId>(site))) {
        occupied_.push_back(static_cast<NodeId>(site));
      }
    }
    spill_.assign(part_->frontier(me_).size(), 0);
    spill_touched_.assign(part_->num_shards(), {});
    return true;
  }

  bool scan(const DistMsg& m) {
    time_ = m.round;
    round_spill_bytes_ = 0;
    round_batches_ = 0;
    round_mid_batches_ = 0;
    // Held counts arrive sparse; sort once so the scan looks them up with
    // a binary search regardless of the order the coordinator chose.
    held_ = m.pairs;
    std::sort(held_.begin(), held_.end());
    const NodeId* arcs = csr_.arcs();
    const std::size_t occupied_before = occupied_.size();
    for (std::size_t idx = 0; idx < occupied_before; ++idx) {
      if (idx + 4 < occupied_before) {
        core::prefetch_ro(&node_[occupied_[idx + 4]]);
      }
      const NodeId v = occupied_[idx];
      NodeState& ns = node_[v];
      const std::uint32_t present = ns.count;
      if (present == 0) continue;  // stale entry; dropped at commit
      std::uint32_t held = held_for(v);
      if (held > present) held = present;
      const std::uint32_t moving = present - held;
      if (moving == 0) continue;
      if (ns.degree == 0) return false;  // agent stranded: bad init
      ns.pointer = core::distribute_exits(
          arcs + ns.row_begin, ns.degree, ns.pointer, moving,
          [&](std::uint32_t p, NodeId u, std::uint32_t c) {
            const std::uint32_t slot =
                single_ ? graph::Partition::kInShard
                        : part_->arc_slot(ns.row_begin + p);
            if (slot == graph::Partition::kInShard) {
              NodeState& nu = node_[u];
              if (nu.arrivals == 0) touched_.push_back(u);
              nu.arrivals += c;
            } else {
              const std::uint32_t dest = part_->frontier_owner(me_, slot);
              if (spill_[slot] == 0) spill_touched_[dest].push_back(slot);
              spill_[slot] += c;
              // Batch full: flush while the scan continues — the bytes
              // cross the socket (and get relayed) during compute.
              if (spill_touched_[dest].size() >= spill_batch_) {
                flush_spill(dest, /*mid_scan=*/true);
              }
            }
          });
      stats_[v].exits += moving;
      ns.count = held;
    }
    if (!io_ok_) return false;
    for (std::uint32_t d = 0; d < part_->num_shards(); ++d) {
      if (!spill_touched_[d].empty()) flush_spill(d, /*mid_scan=*/false);
    }
    if (!io_ok_) return false;
    DistMsg done;
    done.kind = MsgKind::kScanDone;
    done.round = time_;
    done.shard = round_mid_batches_;
    done.value = round_spill_bytes_;
    done.value2 = round_batches_;
    return send_msg(fd_, done);
  }

  /// A spill batch relayed from another worker: fold into the arrival
  /// accumulators (additive, so batch order and splits cannot matter).
  bool absorb_spill(const DistMsg& m) {
    for (const auto& [v, a] : m.pairs) {
      if (v >= node_.size() || !owner_is_me(static_cast<NodeId>(v)) ||
          a == 0 || a > ~std::uint32_t{0}) {
        return false;
      }
      NodeState& nu = node_[v];
      if (nu.arrivals == 0) touched_.push_back(static_cast<NodeId>(v));
      nu.arrivals += static_cast<std::uint32_t>(a);
    }
    return true;
  }

  bool commit(const DistMsg& m) {
    if (m.round != time_) return false;
    // Same membership invariant as the sharded engine's commit: occupied
    // holds exactly the owned rows with agents.
    std::size_t w = 0;
    for (std::size_t i = 0; i < occupied_.size(); ++i) {
      if (node_[occupied_[i]].count > 0) occupied_[w++] = occupied_[i];
    }
    occupied_.resize(w);
    std::uint64_t newly = 0;
    const std::size_t touched_n = touched_.size();
    for (std::size_t i = 0; i < touched_n; ++i) {
      if (i + 4 < touched_n) core::prefetch_ro(&stats_[touched_[i + 4]]);
      const NodeId u = touched_[i];
      const std::uint32_t a = node_[u].arrivals;
      if (a == 0) continue;  // duplicate touch already committed
      node_[u].arrivals = 0;
      if (node_[u].count == 0) occupied_.push_back(u);
      if (core::commit_node_arrival(node_[u], stats_[u], time_, a)) ++newly;
    }
    touched_.clear();
    DistMsg done;
    done.kind = MsgKind::kCommitDone;
    done.round = time_;
    done.value = newly;
    return send_msg(fd_, done);
  }

  bool occupied_reply() {
    DistMsg rep;
    rep.kind = MsgKind::kOccupied;
    for (const NodeId v : occupied_) {
      if (node_[v].count > 0) rep.pairs.emplace_back(v, node_[v].count);
    }
    return send_msg(fd_, rep);
  }

  bool hash_reply(const DistMsg& m) {
    Fnv1a h(m.value);
    for (NodeId v = part_->begin(me_); v < part_->end(me_); ++v) {
      h.mix(node_[v].pointer);
      h.mix(node_[v].count);
    }
    DistMsg rep;
    rep.kind = MsgKind::kHashReply;
    rep.value = h.value();
    return send_msg(fd_, rep);
  }

  bool gather_reply() {
    const NodeId b = part_->begin(me_);
    const NodeId e = part_->end(me_);
    DistMsg rep;
    rep.kind = MsgKind::kGathered;
    rep.value = time_;
    rep.lists.assign(6, {});
    for (auto& list : rep.lists) list.reserve(e - b);
    for (NodeId v = b; v < e; ++v) {
      if (node_[v].count > 0) rep.pairs.emplace_back(v, node_[v].count);
      rep.lists[0].push_back(node_[v].pointer);
      rep.lists[1].push_back(initial_pointers_[v]);
      rep.lists[2].push_back(stats_[v].visits);
      rep.lists[3].push_back(stats_[v].exits);
      rep.lists[4].push_back(stats_[v].first_visit);
      rep.lists[5].push_back(stats_[v].last_visit);
    }
    return send_msg(fd_, rep);
  }

  bool scatter(const DistMsg& m) {
    const NodeId b = part_->begin(me_);
    const NodeId e = part_->end(me_);
    const std::uint64_t len = e - b;
    if (m.lists.size() != 6) return false;
    for (const auto& list : m.lists) {
      if (list.size() != len) return false;
    }
    for (NodeId v = b; v < e; ++v) {
      const std::uint64_t i = v - b;
      if (m.lists[0][i] >= node_[v].degree ||
          m.lists[1][i] >= node_[v].degree) {
        return false;
      }
      node_[v].count = 0;
      node_[v].arrivals = 0;
      node_[v].pointer = static_cast<std::uint32_t>(m.lists[0][i]);
      initial_pointers_[v] = static_cast<std::uint32_t>(m.lists[1][i]);
      stats_[v].visits = m.lists[2][i];
      stats_[v].exits = m.lists[3][i];
      stats_[v].first_visit = m.lists[4][i];
      stats_[v].last_visit = m.lists[5][i];
    }
    occupied_.clear();
    touched_.clear();
    spill_.assign(spill_.size(), 0);
    for (auto& bucket : spill_touched_) bucket.clear();
    for (const auto& [v, c] : m.pairs) {
      if (v < b || v >= e || c == 0 || c > ~std::uint32_t{0}) return false;
      node_[v].count = static_cast<std::uint32_t>(c);
      occupied_.push_back(static_cast<NodeId>(v));
    }
    time_ = m.value;
    DistMsg ok;
    ok.kind = MsgKind::kOk;
    return send_msg(fd_, ok);
  }

 private:
  bool owner_is_me(NodeId v) const {
    return v >= part_->begin(me_) && v < part_->end(me_);
  }

  std::uint32_t held_for(NodeId v) const {
    const auto it = std::lower_bound(
        held_.begin(), held_.end(),
        std::pair<std::uint64_t, std::uint64_t>{v, 0});
    if (it == held_.end() || it->first != v) return 0;
    return static_cast<std::uint32_t>(it->second);
  }

  void flush_spill(std::uint32_t dest, bool mid_scan) {
    DistMsg m;
    m.kind = MsgKind::kSpill;
    m.round = time_;
    m.shard = dest;
    const auto& fr = part_->frontier(me_);
    m.pairs.reserve(spill_touched_[dest].size());
    for (const std::uint32_t slot : spill_touched_[dest]) {
      const std::uint32_t a = spill_[slot];
      if (a == 0) continue;
      spill_[slot] = 0;  // a later deposit re-registers the slot
      m.pairs.emplace_back(fr[slot], a);
    }
    spill_touched_[dest].clear();
    if (m.pairs.empty()) return;
    const std::string payload = encode_msg(m);
    round_spill_bytes_ += payload.size();
    ++round_batches_;
    if (mid_scan) ++round_mid_batches_;
    std::size_t sent = 0;
    const std::string frame = encode_frame(payload);
    while (sent < frame.size()) {
#if defined(MSG_NOSIGNAL)
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
#else
      const ssize_t n = ::write(fd_, frame.data() + sent, frame.size() - sent);
#endif
      if (n < 0) {
        if (errno == EINTR) continue;
        io_ok_ = false;
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  int fd_;
  bool io_ok_ = true;

  graph::CsrGraph csr_{graph::Graph(1)};
  std::unique_ptr<graph::Partition> part_;
  std::uint32_t me_ = 0;
  bool single_ = true;
  std::uint64_t spill_batch_ = 1;
  std::uint64_t time_ = 0;

  std::vector<NodeState> node_;
  std::vector<std::uint32_t> initial_pointers_;
  std::vector<core::VisitStats> stats_;
  std::vector<NodeId> occupied_;
  std::vector<NodeId> touched_;
  std::vector<std::uint32_t> spill_;
  std::vector<std::vector<std::uint32_t>> spill_touched_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> held_;

  std::uint64_t round_spill_bytes_ = 0;
  std::uint64_t round_batches_ = 0;
  std::uint64_t round_mid_batches_ = 0;
};

}  // namespace

int worker_serve(int fd, std::uint64_t fail_after_scans) {
  WorkerNode node(fd);
  FrameDecoder dec;
  bool inited = false;
  std::uint64_t scans = 0;
  int rc = 0;
  while (true) {
    const auto m = recv_msg(fd, dec);
    if (!m) {
      rc = dec.fatal() ? 1 : 0;  // plain EOF = coordinator gone, clean exit
      break;
    }
    if (m->kind == MsgKind::kShutdown) break;
    if (!inited) {
      if (m->kind != MsgKind::kInit) {
        rc = 1;
        break;
      }
      if (!node.init(*m)) {
        rc = 2;
        break;
      }
      inited = true;
      DistMsg ok;
      ok.kind = MsgKind::kOk;
      if (!send_msg(fd, ok)) {
        rc = 1;
        break;
      }
      continue;
    }
    bool ok = false;
    switch (m->kind) {
      case MsgKind::kScan:
        // Fault-injection hook: crash (drop the socket) instead of
        // handling this scan.
        if (fail_after_scans != 0 && ++scans >= fail_after_scans) {
          ::close(fd);
          return 0;
        }
        ok = node.scan(*m);
        break;
      case MsgKind::kSpill:
        ok = node.absorb_spill(*m);
        break;
      case MsgKind::kCommit:
        ok = node.commit(*m);
        break;
      case MsgKind::kOccupiedQuery:
        ok = node.occupied_reply();
        break;
      case MsgKind::kHash:
        ok = node.hash_reply(*m);
        break;
      case MsgKind::kGather:
        ok = node.gather_reply();
        break;
      case MsgKind::kScatter:
        ok = node.scatter(*m);
        break;
      default:
        ok = false;
        break;
    }
    if (!ok) {
      rc = 1;
      break;
    }
  }
  ::close(fd);
  return rc;
}

}  // namespace rr::dist
