// E-LAZY (Sec. 2.2): throughput of the lazy domain-dynamics ring engine
// vs the dense ring engine in the post-transient regime.
//
// Once domains are established, the whole configuration is O(k) structure
// and the lazy engine advances run() by ballistic leaps between interaction
// events; the dense engine still pays O(k) array work *per round*. This
// driver measures rounds/s for both on a million-node ring, checks the
// engines agree on the final config_hash (the lazy engine is exact, not
// approximate), and prints the speed-up. Acceptance gate: >= 5x at
// n = 2^20, k <= 64 post-transient.
//
// A second table runs the paper's worst-case start (Thm 1): every agent on
// one node, every pointer toward it, to coverage and then as many rounds
// again. Crowded agents cannot leap, so the lazy engine must fall back to
// its dense kernel rather than pay leap bookkeeping per round. Acceptance
// gate: lazy rounds/s >= 0.8x dense at k in {8, 32}; the process exits 1
// if it fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/runner.hpp"

namespace {

using rr::core::LazyRingRotorRouter;
using rr::core::NodeId;
using rr::core::RingRotorRouter;

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Lazy O(k)-per-round ring engine vs dense ring engine",
      "Sec. 2.2 domain dynamics (Definition 1, Fig. 1)");

  const auto n = static_cast<NodeId>(rr::sim::scaled_pow2(1 << 20));
  const std::uint64_t transient = 4ULL * n;
  const std::uint64_t measured = rr::sim::scaled(1ULL << 22);

  rr::analysis::Table t({"k", "engine", "rounds/s", "speed-up", "hash match"});
  for (std::uint32_t k : {1u, 8u, 64u}) {
    const auto agents = rr::core::place_equally_spaced(n, k);
    RingRotorRouter dense(n, agents);
    LazyRingRotorRouter lazy(n, agents);

    // Burn through the transient so the measurement is the post-transient
    // regime (the lazy engine promotes itself along the way).
    dense.run(transient);
    lazy.run(transient);

    const double dense_s = seconds_of([&] { dense.run(measured); });
    const double lazy_s = seconds_of([&] { lazy.run(measured); });
    const bool match = dense.config_hash() == lazy.config_hash() &&
                       dense.time() == lazy.time();

    const double dense_rps = static_cast<double>(measured) / dense_s;
    const double lazy_rps = static_cast<double>(measured) / lazy_s;
    t.add_row({rr::analysis::Table::integer(k), "ring-rotor-router",
               rr::analysis::Table::num(dense_rps, 0), "1.0",
               match ? "yes" : "NO"});
    t.add_row({rr::analysis::Table::integer(k), "lazy-ring-rotor-router",
               rr::analysis::Table::num(lazy_rps, 0),
               rr::analysis::Table::num(lazy_rps / dense_rps, 1),
               match ? "yes" : "NO"});
  }
  t.print();
  std::printf(
      "\nBoth engines advance the same %llu rounds from the same"
      " post-transient state (n = %u); `hash match` certifies bit-equal"
      " final configurations. The lazy engine's advantage is leap length:"
      " between interaction events it advances every agent through half the"
      " minimum inter-agent gap in O(k log k) work.\n",
      static_cast<unsigned long long>(measured), n);

  // Worst-case start: cover, then a tail of as many rounds. Best of a few
  // alternating repetitions per engine, so one slow slice of a shared
  // host does not decide the gate.
  const auto nw = static_cast<NodeId>(
      std::max<std::uint64_t>(256, rr::sim::scaled_pow2(1 << 12)));
  const auto toward = rr::core::pointers_toward(nw, 0);
  rr::analysis::Table w({"k", "engine", "rounds", "rounds/s", "vs dense",
                         "hash match"});
  bool pass = true;
  for (std::uint32_t k : {8u, 32u}) {
    const auto agents = rr::core::place_all_on_one(k, 0);
    double dense_s = 1e300;
    double lazy_s = 1e300;
    std::uint64_t rounds = 0;
    bool match = true;
    for (int rep = 0; rep < 5; ++rep) {
      RingRotorRouter dense(nw, agents, toward);
      LazyRingRotorRouter lazy(nw, agents, toward);
      const std::uint64_t cap = 64ULL * nw * nw;
      dense_s = std::min(dense_s, seconds_of([&] {
                           dense.run(dense.run_until_covered(cap));
                         }));
      lazy_s = std::min(lazy_s, seconds_of([&] {
                          lazy.run(lazy.run_until_covered(cap));
                        }));
      rounds = dense.time();
      match = match && dense.time() == lazy.time() &&
              dense.config_hash() == lazy.config_hash();
    }
    const double ratio = dense_s / lazy_s;
    pass = pass && match && ratio >= 0.8;
    const double r = static_cast<double>(rounds);
    w.add_row({rr::analysis::Table::integer(k), "ring-rotor-router",
               rr::analysis::Table::integer(rounds),
               rr::analysis::Table::num(r / dense_s, 0), "1.00",
               match ? "yes" : "NO"});
    w.add_row({rr::analysis::Table::integer(k), "lazy-ring-rotor-router",
               rr::analysis::Table::integer(rounds),
               rr::analysis::Table::num(r / lazy_s, 0),
               rr::analysis::Table::num(ratio, 2), match ? "yes" : "NO"});
  }
  std::printf("\nWorst-case start (all agents on node 0, pointers toward it),"
              " n = %u, run to cover then as many rounds again:\n",
              nw);
  w.print();
  std::printf("acceptance: lazy rounds/s >= 0.8x dense at k in {8, 32}: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
