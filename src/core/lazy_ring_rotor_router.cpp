#include "core/lazy_ring_rotor_router.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace rr::core {

namespace {

constexpr std::uint64_t kUnbounded = ~std::uint64_t{0} >> 1;

// Rounds a ballistic segment must advance to beat the dense kernel. One
// segment (a std::map flip, one or two Fenwick range adds, arc-map surgery,
// its share of the per-leap sort) cost 120-250 ns against 14-17 ns per site
// for a dense round — a ratio of 8 to 17 — measured once over n in
// {2^12, 2^14}, k in {4, 16, 64} on a 4-core 2.1 GHz Xeon, Release build.
constexpr std::uint64_t kBreakEvenRounds = 16;
// Segments booked per demotion decision: long enough to average over a
// window of sparse rounds and leaps, short enough that a bad window costs
// little next to the O(n) switch.
constexpr std::uint64_t kSwitchWindow = 256;
// First rounds between dense-kernel promotion checks; doubles after each
// failed O(n) attempt and each demotion, which bounds switching to
// O(log T) round trips over T rounds.
constexpr std::uint64_t kRetryInterval = 64;

}  // namespace

LazyRingRotorRouter::LazyRingRotorRouter(NodeId n,
                                         const std::vector<NodeId>& agents,
                                         std::vector<std::uint8_t> pointers)
    : n_(n),
      k_(static_cast<std::uint32_t>(agents.size())),
      first_visit_(n, sim::kNotCovered),
      visits_(n, 0) {
  RR_REQUIRE(n >= 3, "ring requires n >= 3");
  RR_REQUIRE(!agents.empty(), "at least one agent required");
  if (pointers.empty()) {
    ptr_.assign(n, kClockwise);
  } else {
    RR_REQUIRE(pointers.size() == n, "pointer vector size mismatch");
    for (std::uint8_t p : pointers) {
      RR_REQUIRE(p <= 1, "ring pointer must be 0 (cw) or 1 (acw)");
    }
    ptr_ = std::move(pointers);
  }
  std::vector<NodeId> sorted = agents;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId v : sorted) {
    RR_REQUIRE(v < n, "agent start node out of range");
    ++visits_[v];
    if (!sites_.empty() && sites_.back().node == v) {
      ++sites_.back().count;
      continue;
    }
    sites_.push_back({v, 1});
    first_visit_[v] = 0;
    ++covered_;
  }
  // Compact initializations (all-clockwise defaults, equally spaced starts)
  // already have an O(k)-run pointer field: start in the leap kernel, and
  // let the policy demote if leaps turn out short. Adversarial fields
  // (random, negative) start dense.
  reset_policy();
  try_promote();
}

// ---- one exact synchronous round ----

void LazyRingRotorRouter::commit_round() {
  // Departures were pushed in site order, so each stream is sorted except
  // where it wraps: node n-1's clockwise arrival at 0 belongs first, node
  // 0's anticlockwise arrival at n-1 last.
  if (cw_.size() > 1 && cw_.back().node == 0) {
    std::rotate(cw_.begin(), cw_.end() - 1, cw_.end());
  }
  if (acw_.size() > 1 && acw_.front().node == n_ - 1) {
    std::rotate(acw_.begin(), acw_.begin() + 1, acw_.end());
  }
  // A sentinel past the last node ends each stream.
  sites_.push_back({n_, 0});
  cw_.push_back({n_, 0});
  acw_.push_back({n_, 0});
  merged_.clear();
  const Site* h = sites_.data();
  const Site* c = cw_.data();
  const Site* a = acw_.data();
  for (;;) {
    const NodeId u = std::min({h->node, c->node, a->node});
    if (u == n_) break;
    std::uint32_t arrived = 0;
    if (c->node == u) arrived += (c++)->count;
    if (a->node == u) arrived += (a++)->count;
    const std::uint32_t held = h->node == u ? (h++)->count : 0;
    merged_.push_back({u, held + arrived});
    if (arrived == 0) continue;
    if (leap_) {
      visit_counts_.add(u, u, arrived);
      if (first_visit_[u] == sim::kNotCovered) mark_visited(u, time_);
    } else {
      visits_[u] += arrived;
      if (first_visit_[u] == sim::kNotCovered) {
        first_visit_[u] = time_;
        ++covered_;
      }
    }
  }
  sites_.swap(merged_);
}

// ---- kernel switching ----

std::vector<std::pair<std::uint64_t, std::uint64_t>>
LazyRingRotorRouter::pointer_runs() const {
  if (leap_) return {runs_.begin(), runs_.end()};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs{{0, ptr_[0]}};
  for (NodeId v = 1; v < n_; ++v) {
    if (ptr_[v] != ptr_[v - 1]) runs.emplace_back(v, ptr_[v]);
  }
  return runs;
}

std::uint32_t LazyRingRotorRouter::pointer_arc_count() const {
  return static_cast<std::uint32_t>(pointer_runs().size());
}

bool LazyRingRotorRouter::try_promote(bool force) {
  if (leap_) return true;
  const auto runs = pointer_runs();
  const std::uint32_t limit = std::max<std::uint32_t>(64, 4 * k_ + 16);
  if (!force && runs.size() > limit) return false;

  runs_.clear();
  for (const auto& [start, value] : runs) {
    runs_.emplace_hint(runs_.end(), static_cast<NodeId>(start),
                       static_cast<std::uint8_t>(value));
  }
  visit_counts_ = RangeAddFenwick(visits_);
  rebuild_unvisited_from_first_visit();
  ptr_ = {};
  visits_ = {};
  leap_ = true;
  window_segments_ = 0;
  window_rounds_ = 0;
  return true;
}

void LazyRingRotorRouter::demote() {
  ptr_.resize(n_);
  for (auto it = runs_.begin(); it != runs_.end(); ++it) {
    const auto nx = std::next(it);
    const NodeId end = nx == runs_.end() ? n_ : nx->first;
    std::fill(ptr_.begin() + it->first, ptr_.begin() + end, it->second);
  }
  visit_counts_.values(visits_);
  runs_.clear();
  visit_counts_ = RangeAddFenwick();
  unvisited_.clear();
  leap_ = false;
  retry_interval_ *= 2;
  next_check_ = time_ + retry_interval_;
}

void LazyRingRotorRouter::reset_policy() {
  retry_interval_ = kRetryInterval;
  next_check_ = time_ + retry_interval_;
  window_segments_ = 0;
  window_rounds_ = 0;
}

void LazyRingRotorRouter::maybe_promote() {
  if (time_ < next_check_) return;
  next_check_ = time_ + retry_interval_;
  // O(k) gate first: crowded sites cannot leap at all, and close ones not
  // far enough to repay a segment. Only then pay the O(n) compactness scan.
  if (!leap_eligible() || safe_window() < kBreakEvenRounds) return;
  if (try_promote()) return;
  retry_interval_ *= 2;
  next_check_ = time_ + retry_interval_;
}

void LazyRingRotorRouter::note_leap_work(std::uint64_t segments,
                                         std::uint64_t site_rounds) {
  window_segments_ += segments;
  window_rounds_ += site_rounds;
  if (window_segments_ < kSwitchWindow) return;
  const bool pays = window_rounds_ >= kBreakEvenRounds * window_segments_;
  window_segments_ = 0;
  window_rounds_ = 0;
  if (!pays) demote();
}

// ---- pointer-run map ----

std::uint8_t LazyRingRotorRouter::run_value(NodeId v) const {
  return std::prev(runs_.upper_bound(v))->second;
}

std::uint64_t LazyRingRotorRouter::segment_from(NodeId v,
                                                std::uint8_t* dir_out) const {
  auto it = std::prev(runs_.upper_bound(v));
  const std::uint8_t e = it->second;
  if (dir_out) *dir_out = e;
  if (e == kClockwise) {
    auto nx = std::next(it);
    const NodeId end = (nx == runs_.end()) ? n_ - 1 : nx->first - 1;
    return static_cast<std::uint64_t>(end) - v + 1;
  }
  return static_cast<std::uint64_t>(v) - it->first + 1;
}

void LazyRingRotorRouter::flip_run_prefix(NodeId v, std::uint64_t len,
                                          std::uint8_t dir) {
  RR_ASSERT(len >= 1 && len <= n_, "flip length out of range");
  const NodeId lo =
      dir == kClockwise ? v : static_cast<NodeId>(v - (len - 1));
  const NodeId hi =
      dir == kClockwise ? static_cast<NodeId>(v + (len - 1)) : v;
  flip_range(lo, hi);
}

void LazyRingRotorRouter::flip_range(NodeId lo, NodeId hi) {
  auto it = std::prev(runs_.upper_bound(lo));
  const NodeId a = it->first;
  const std::uint8_t x = it->second;
  const std::uint8_t y = x ^ 1;
  auto nxt = std::next(it);
  const NodeId b = (nxt == runs_.end()) ? n_ - 1 : nxt->first - 1;
  RR_ASSERT(hi <= b, "flip range spans multiple runs");
  if (hi < b) {
    runs_.emplace_hint(nxt, hi + 1, x);
  } else if (nxt != runs_.end() && nxt->second == y) {
    runs_.erase(nxt);
  }
  if (lo > a) {
    runs_.emplace(lo, y);
  } else {
    it->second = y;
    if (a != 0) {
      auto pit = std::prev(it);
      if (pit->second == y) runs_.erase(it);
    }
  }
}

// ---- coverage bookkeeping ----

std::uint64_t LazyRingRotorRouter::ring_dist(NodeId origin, NodeId u,
                                             std::uint8_t dir) const {
  const NodeId d = dir == kClockwise ? static_cast<NodeId>((u + n_ - origin) % n_)
                                     : static_cast<NodeId>((origin + n_ - u) % n_);
  return d == 0 ? n_ : d;
}

void LazyRingRotorRouter::rebuild_unvisited_from_first_visit() {
  unvisited_.clear();
  for (NodeId v = 0; v < n_; ++v) {
    if (first_visit_[v] != sim::kNotCovered) continue;
    if (v == 0 || first_visit_[v - 1] != sim::kNotCovered) {
      unvisited_.emplace_hint(unvisited_.end(), v, v);
    } else {
      std::prev(unvisited_.end())->second = v;
    }
  }
}

void LazyRingRotorRouter::mark_visited(NodeId v, std::uint64_t round) {
  first_visit_[v] = round;
  ++covered_;
  auto it = std::prev(unvisited_.upper_bound(v));
  const NodeId a = it->first;
  const NodeId b = it->second;
  RR_ASSERT(a <= v && v <= b, "unvisited arcs out of sync");
  unvisited_.erase(it);
  if (a < v) unvisited_.emplace(a, v - 1);
  if (v < b) unvisited_.emplace(v + 1, b);
}

LazyRingRotorRouter::CoverScan LazyRingRotorRouter::scan_unvisited(
    NodeId a, NodeId b, NodeId origin, std::uint8_t dir,
    std::uint64_t t0) const {
  CoverScan out;
  auto it = unvisited_.upper_bound(a);
  if (it != unvisited_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= a) it = prev;
  }
  for (; it != unvisited_.end() && it->first <= b; ++it) {
    const NodeId lo = std::max(it->first, a);
    const NodeId hi = std::min(it->second, b);
    out.newly += static_cast<std::uint64_t>(hi) - lo + 1;
    std::uint64_t maxd =
        std::max(ring_dist(origin, lo, dir), ring_dist(origin, hi, dir));
    if (lo <= origin && origin <= hi) maxd = n_;
    out.last_round = std::max(out.last_round, t0 + maxd);
  }
  return out;
}

void LazyRingRotorRouter::apply_cover(NodeId a, NodeId b, NodeId origin,
                                      std::uint8_t dir, std::uint64_t t0) {
  // Collect the overlapped arcs first; arc surgery after the scan keeps the
  // iteration simple.
  std::vector<std::pair<NodeId, NodeId>> hits;
  {
    auto it = unvisited_.upper_bound(a);
    if (it != unvisited_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= a) it = prev;
    }
    for (; it != unvisited_.end() && it->first <= b; ++it) hits.push_back(*it);
  }
  for (const auto& [arc_a, arc_b] : hits) {
    const NodeId lo = std::max(arc_a, a);
    const NodeId hi = std::min(arc_b, b);
    for (NodeId u = lo;; ++u) {
      first_visit_[u] = t0 + ring_dist(origin, u, dir);
      if (u == hi) break;
    }
    covered_ += hi - lo + 1;
    unvisited_.erase(arc_a);
    if (arc_a < lo) unvisited_.emplace(arc_a, lo - 1);
    if (hi < arc_b) unvisited_.emplace(hi + 1, arc_b);
  }
}

void LazyRingRotorRouter::sweep_visits(NodeId origin, std::uint8_t dir,
                                       std::uint64_t adv, std::uint64_t t0) {
  // Arrival set: adv consecutive nodes; as a clockwise-ascending range it
  // starts at origin+1 (cw sweep) or origin-adv (acw sweep), split at the
  // 0 wrap.
  const NodeId first = dir == kClockwise ? fwd(origin, 1) : bwd(origin, adv);
  const std::uint64_t tail = std::min<std::uint64_t>(adv, n_ - first);
  const NodeId tail_end = static_cast<NodeId>(first + tail - 1);
  visit_counts_.add(first, tail_end, 1);
  if (covered_ < n_) apply_cover(first, tail_end, origin, dir, t0);
  if (adv > tail) {
    const NodeId head_end = static_cast<NodeId>(adv - tail - 1);
    visit_counts_.add(0, head_end, 1);
    if (covered_ < n_) apply_cover(0, head_end, origin, dir, t0);
  }
}

// ---- ballistic fast-forward ----

std::uint64_t LazyRingRotorRouter::safe_window() const {
  if (sites_.size() < 2) return kUnbounded;
  NodeId min_gap = n_;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const NodeId a = sites_[i].node;
    const NodeId b = sites_[(i + 1) % sites_.size()].node;
    const NodeId gap = i + 1 == sites_.size()
                           ? static_cast<NodeId>(b + n_ - a)
                           : static_cast<NodeId>(b - a);
    min_gap = std::min(min_gap, gap);
  }
  return (min_gap - 1) / 2;
}

std::uint64_t LazyRingRotorRouter::min_segment() const {
  std::uint64_t m = kUnbounded;
  for (const Site& s : sites_) {
    m = std::min(m, segment_from(s.node, nullptr));
  }
  return m;
}

void LazyRingRotorRouter::leap_window(std::uint64_t rounds) {
  RR_ASSERT(rounds >= 1 && rounds <= safe_window(), "unsafe leap window");
  std::uint64_t segments = 0;
  for (Site& s : sites_) {
    std::uint64_t left = rounds;
    NodeId p = s.node;
    std::uint64_t t = time_;
    while (left > 0) {
      std::uint8_t e = 0;
      const std::uint64_t m = segment_from(p, &e);
      const std::uint64_t adv = std::min(left, m);
      flip_run_prefix(p, adv, e);
      sweep_visits(p, e, adv, t);
      p = e == kClockwise ? fwd(p, adv) : bwd(p, adv);
      t += adv;
      left -= adv;
      ++segments;
    }
    s.node = p;
  }
  time_ += rounds;
  // Displacements are under half the minimum gap, so the cyclic order is
  // intact; a wrap past node 0 can still rotate the linear order.
  std::sort(sites_.begin(), sites_.end(),
            [](const Site& a, const Site& b) { return a.node < b.node; });
  note_leap_work(segments, rounds * sites_.size());
}

std::uint64_t LazyRingRotorRouter::linear_cover_round(
    std::uint64_t rounds) const {
  std::uint64_t newly = 0;
  std::uint64_t last = 0;
  for (const Site& s : sites_) {
    std::uint8_t e = 0;
    (void)segment_from(s.node, &e);
    const NodeId first = e == kClockwise ? fwd(s.node, 1) : bwd(s.node, rounds);
    const std::uint64_t tail = std::min<std::uint64_t>(rounds, n_ - first);
    const CoverScan c1 = scan_unvisited(
        first, static_cast<NodeId>(first + tail - 1), s.node, e, time_);
    newly += c1.newly;
    last = std::max(last, c1.last_round);
    if (rounds > tail) {
      const CoverScan c2 = scan_unvisited(
          0, static_cast<NodeId>(rounds - tail - 1), s.node, e, time_);
      newly += c2.newly;
      last = std::max(last, c2.last_round);
    }
  }
  if (newly > 0 && covered_ + newly == n_) return last;
  return 0;
}

// ---- drivers ----

void LazyRingRotorRouter::dense_rounds(std::uint64_t budget, bool until_cover) {
  // Stop at the next policy check and at the next auto-checkpoint mark
  // (an overdue mark still lets one round through, as step() would).
  std::uint64_t rounds = std::min({budget, next_check_ - time_,
                                   rounds_to_auto_checkpoint()});
  rounds = std::max<std::uint64_t>(rounds, 1);
  const auto no_delay = [](NodeId, std::uint64_t, std::uint32_t) { return 0u; };
  for (std::uint64_t i = 0; i < rounds; ++i) {
    round(no_delay);
    if (until_cover && covered_ == n_) return;
  }
}

void LazyRingRotorRouter::leap_event(std::uint64_t budget, bool until_cover) {
  // Leaps stop at the next auto-checkpoint mark so the sink fires on the
  // exact schedule even when thousands of rounds pass per leap.
  std::uint64_t w = 0;
  if (leap_eligible()) {
    w = std::min({safe_window(), budget, rounds_to_auto_checkpoint()});
    if (until_cover && w > 0) w = std::min(w, min_segment());
  }
  if (w == 0) {
    step();
    return;
  }
  if (until_cover) {
    // Single-segment leaps have predictable trajectories, so coverage
    // completion can be located exactly and the leap clamped to land on
    // the cover round (matching the dense stop-at-cover contract).
    const std::uint64_t cover = linear_cover_round(w);
    if (cover > 0) w = cover - time_;
  }
  leap_window(w);
}

void LazyRingRotorRouter::run(std::uint64_t rounds) {
  const std::uint64_t target = time_ + rounds;
  while (time_ < target) {
    if (!leap_) maybe_promote();
    if (leap_) {
      leap_event(target - time_, /*until_cover=*/false);
    } else {
      dense_rounds(target - time_, /*until_cover=*/false);
    }
    fire_auto_checkpoint_if_due();
  }
}

std::uint64_t LazyRingRotorRouter::run_until_covered(std::uint64_t max_rounds) {
  if (all_covered()) return 0;
  while (time_ < max_rounds) {
    if (!leap_) maybe_promote();
    if (leap_) {
      leap_event(max_rounds - time_, /*until_cover=*/true);
    } else {
      dense_rounds(max_rounds - time_, /*until_cover=*/true);
    }
    fire_auto_checkpoint_if_due();
    if (covered_ == n_) return time_;
  }
  return sim::kNotCovered;
}

// ---- observers ----

std::uint64_t LazyRingRotorRouter::visits(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  if (!leap_) return visits_[v];
  return static_cast<std::uint64_t>(visit_counts_.at(v));
}

std::uint64_t LazyRingRotorRouter::first_visit_time(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  return first_visit_[v];
}

std::uint32_t LazyRingRotorRouter::agents_at(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  const auto it = std::lower_bound(
      sites_.begin(), sites_.end(), v,
      [](const Site& s, NodeId node) { return s.node < node; });
  return it != sites_.end() && it->node == v ? it->count : 0;
}

std::uint8_t LazyRingRotorRouter::pointer(NodeId v) const {
  RR_REQUIRE(v < n_, "node out of range");
  return leap_ ? run_value(v) : ptr_[v];
}

std::uint64_t LazyRingRotorRouter::config_hash() const {
  // Byte-compatible with RingRotorRouter::config_hash: mix(pointer, count)
  // per node in node order.
  Fnv1a h;
  auto run = runs_.begin();
  std::uint8_t run_ptr = leap_ ? run->second : 0;
  std::size_t si = 0;
  for (NodeId v = 0; v < n_; ++v) {
    if (leap_ && run != runs_.end() && run->first == v) run_ptr = (run++)->second;
    std::uint32_t count = 0;
    if (si < sites_.size() && sites_[si].node == v) count = sites_[si++].count;
    h.mix(leap_ ? run_ptr : ptr_[v]);
    h.mix(count);
  }
  return h.value();
}

// ---- state I/O ----

void LazyRingRotorRouter::serialize_state(sim::StateWriter& out) const {
  out.field("phase", "lazy");
  out.field_u64("time", time_);
  out.field_pairs("runs", pointer_runs());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sites;
  sites.reserve(sites_.size());
  for (const Site& s : sites_) sites.emplace_back(s.node, s.count);
  out.field_pairs("agents", sites);
  if (leap_) {
    std::vector<std::uint64_t> visits;
    visit_counts_.values(visits);
    out.field_list("visits", visits);
  } else {
    out.field_list("visits", visits_);
  }
  out.field_list("first_visit", first_visit_);
}

bool LazyRingRotorRouter::deserialize_state(const sim::StateReader& in) {
  const auto phase = in.raw("phase");
  if (!phase || (*phase != "lazy" && *phase != "dense")) return false;
  const auto time = in.u64("time");
  const auto sites = in.pairs("agents");
  const auto visits = in.u64_list("visits", n_);
  const auto first_visit = in.u64_list("first_visit", n_);
  if (!time || !sites || sites->empty() || !visits || !first_visit) {
    return false;
  }
  // Pointers: maximal runs in the current layout, one direction per node
  // in the older dense-phase layout (a RingRotorRouter state).
  std::vector<std::uint8_t> ptr;
  if (*phase == "dense") {
    auto dirs = in.dirs("pointers", n_);
    if (!dirs) return false;
    ptr = std::move(*dirs);
  } else {
    const auto runs = in.pairs("runs");
    if (!runs || runs->empty() || (*runs)[0].first != 0) return false;
    ptr.resize(n_);
    for (std::size_t i = 0; i < runs->size(); ++i) {
      const auto [start, value] = (*runs)[i];
      const std::uint64_t end = i + 1 < runs->size() ? (*runs)[i + 1].first : n_;
      if (start >= n_ || end > n_ || value > 1) return false;
      std::fill(ptr.begin() + start, ptr.begin() + end,
                static_cast<std::uint8_t>(value));
    }
  }
  std::uint64_t total_agents = 0;
  for (const auto& [v, c] : *sites) {
    if (v >= n_ || c == 0 || c > ~std::uint32_t{0}) return false;
    total_agents += c;
  }
  if (total_agents > ~std::uint32_t{0}) return false;
  for (std::uint64_t x : *visits) {
    if (x > static_cast<std::uint64_t>(~std::uint64_t{0} >> 1)) return false;
  }

  time_ = *time;
  k_ = static_cast<std::uint32_t>(total_agents);
  sites_.clear();
  for (const auto& [v, c] : *sites) {
    sites_.push_back({static_cast<NodeId>(v), static_cast<std::uint32_t>(c)});
  }
  first_visit_ = *first_visit;
  covered_ = static_cast<NodeId>(
      n_ - std::count(first_visit_.begin(), first_visit_.end(), sim::kNotCovered));
  // Load into the dense kernel, then choose a kernel like the constructor.
  leap_ = false;
  ptr_ = std::move(ptr);
  visits_ = *visits;
  runs_.clear();
  visit_counts_ = RangeAddFenwick();
  unvisited_.clear();
  reset_policy();
  try_promote();
  return true;
}

}  // namespace rr::core
