// Unit tests for the lazy domain-dynamics ring engine (S4-lazy): promotion
// policy, O(k) representation invariants, ballistic fast-forward, and the
// Fenwick-backed observers. Cross-engine equality lives in
// differential_test.cpp; these tests pin the engine's own mechanics.

#include "core/lazy_ring_rotor_router.hpp"

#include <gtest/gtest.h>

#include "common/fenwick.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "sim/limit_cycle.hpp"

namespace rr::core {
namespace {

TEST(LazyRing, PromotesAtConstructionOnCompactPointerFields) {
  // All-clockwise defaults have a single pointer run: lazy from round 0.
  LazyRingRotorRouter rr(64, place_equally_spaced(64, 4));
  EXPECT_TRUE(rr.lazy());
  EXPECT_EQ(rr.pointer_arc_count(), 1u);
}

TEST(LazyRing, StaysDenseOnAdversarialPointerFields) {
  // A random pointer field has ~n/2 runs: far beyond the O(k) promotion
  // threshold, so the transient runs on the dense engine.
  Rng rng(11);
  const NodeId n = 4096;
  LazyRingRotorRouter rr(n, {0, n / 2}, pointers_random(n, rng));
  EXPECT_FALSE(rr.lazy());
  EXPECT_GT(rr.pointer_arc_count(), 4u * 2 + 16);
}

TEST(LazyRing, ForcedPromotionKeepsEveryObserver) {
  Rng rng(12);
  const NodeId n = 256;
  const auto agents = place_random(n, 6, rng);
  const auto ptrs = pointers_random(n, rng);
  LazyRingRotorRouter a(n, agents, ptrs);
  LazyRingRotorRouter b(n, agents, ptrs);
  a.run(97);
  b.run(97);
  ASSERT_FALSE(a.lazy());
  ASSERT_TRUE(b.try_promote(/*force=*/true));
  EXPECT_EQ(a.config_hash(), b.config_hash());
  EXPECT_EQ(a.covered_count(), b.covered_count());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(a.visits(v), b.visits(v)) << "v " << v;
    ASSERT_EQ(a.first_visit_time(v), b.first_visit_time(v)) << "v " << v;
    ASSERT_EQ(a.agents_at(v), b.agents_at(v)) << "v " << v;
    ASSERT_EQ(a.pointer(v), b.pointer(v)) << "v " << v;
  }
}

TEST(LazyRing, SingleAgentLocksIntoPeriodTwoN) {
  // The classic 2n lock-in: n clockwise sweeps then n anticlockwise sweeps
  // return the exact configuration. The leap path must reproduce it.
  const NodeId n = 1024;
  LazyRingRotorRouter rr(n, {5});
  ASSERT_TRUE(rr.lazy());
  const std::uint64_t h0 = rr.config_hash();
  rr.run(2 * n);
  EXPECT_EQ(rr.config_hash(), h0);
  EXPECT_EQ(rr.time(), 2ULL * n);
  rr.run(n);  // half a period: anticlockwise sweep pending, hash differs
  EXPECT_NE(rr.config_hash(), h0);
}

TEST(LazyRing, PointerArcsStayCompactAfterLockIn) {
  // Post-transient signature (Fig. 1): each domain contributes O(1) pointer
  // runs, so the run map stays O(k) while leaps advance millions of rounds.
  const NodeId n = 1 << 16;
  const std::uint32_t k = 16;
  LazyRingRotorRouter rr(n, place_equally_spaced(n, k));
  ASSERT_TRUE(rr.lazy());
  rr.run(20ULL * n);
  EXPECT_LE(rr.pointer_arc_count(), 4 * k + 16);
  EXPECT_EQ(rr.time(), 20ULL * n);
}

TEST(LazyRing, VisitsConserveAgentRoundsThroughLeaps) {
  const NodeId n = 2048;
  const std::uint32_t k = 8;
  LazyRingRotorRouter rr(n, place_equally_spaced(n, k));
  const std::uint64_t rounds = 10 * n + 17;
  rr.run(rounds);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += rr.visits(v);
  EXPECT_EQ(total, static_cast<std::uint64_t>(k) * (rounds + 1));
}

TEST(LazyRing, HashCycleDetectorDrivesTheLazyEngine) {
  // Brent over config_hash must work unchanged on the lazy backend.
  LazyRingRotorRouter rr(48, place_equally_spaced(48, 3));
  const auto cycle = sim::detect_hash_cycle(rr, 1 << 18);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ((2u * 48) % cycle->period, 0u);
}

TEST(LazyRing, RunUntilCoveredReportsExactRound) {
  LazyRingRotorRouter rr(8, {0});
  ASSERT_TRUE(rr.lazy());
  const std::uint64_t cover = rr.run_until_covered(1000);
  EXPECT_EQ(cover, 7u);
  EXPECT_EQ(rr.time(), 7u);
  EXPECT_EQ(rr.run_until_covered(1000), 0u);
}

TEST(LazyRing, DelayedPileUpsStayExactInLazyMode) {
  // Hold everything on one node for a while: counts far above 2 while the
  // engine is already lazy. The sparse round must handle the pile-up.
  const NodeId n = 64;
  LazyRingRotorRouter rr(n, std::vector<NodeId>(9, 7));
  ASSERT_TRUE(rr.lazy());
  for (int t = 0; t < 40; ++t) {
    rr.step_delayed([](NodeId v, std::uint64_t time, std::uint32_t present) {
      return (v == 7 && time < 20) ? present : 0u;
    });
  }
  std::uint32_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += rr.agents_at(v);
  EXPECT_EQ(total, 9u);
  EXPECT_EQ(rr.num_agents(), 9u);
}

TEST(Fenwick, RangeAddPointQuery) {
  RangeAddFenwick f(10);
  f.add(2, 5, 3);
  f.add(0, 9, 1);
  f.add(5, 5, -2);
  EXPECT_EQ(f.at(0), 1);
  EXPECT_EQ(f.at(2), 4);
  EXPECT_EQ(f.at(4), 4);
  EXPECT_EQ(f.at(5), 2);
  EXPECT_EQ(f.at(6), 1);
  EXPECT_EQ(f.at(9), 1);
}

TEST(Fenwick, BuildsFromValuesInLinearTime) {
  Rng rng(99);
  std::vector<std::int64_t> values(1337);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.bounded(1000));
  RangeAddFenwick f(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(f.at(i), values[i]) << "i " << i;
  }
  f.add(100, 1000, 7);
  EXPECT_EQ(f.at(99), values[99]);
  EXPECT_EQ(f.at(100), values[100] + 7);
  EXPECT_EQ(f.at(1000), values[1000] + 7);
  EXPECT_EQ(f.at(1001), values[1001]);
}

TEST(Fenwick, ValuesRecoverEveryPointAfterRangeAdds) {
  Rng rng(7);
  std::vector<std::int64_t> values(517);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.bounded(50));
  RangeAddFenwick f(values);
  for (int op = 0; op < 200; ++op) {
    const std::uint32_t l = rng.bounded(517);
    const std::uint32_t r = l + rng.bounded(517 - l);
    const std::int64_t d = static_cast<std::int64_t>(rng.bounded(9));
    f.add(l, r, d);
    for (std::uint32_t i = l; i <= r; ++i) values[i] += d;
  }
  std::vector<std::uint64_t> out;
  f.values(out);
  ASSERT_EQ(out.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint64_t>(values[i])) << "i " << i;
  }
}

}  // namespace
}  // namespace rr::core
