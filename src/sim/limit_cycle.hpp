#pragma once

// Engine-generic limit-cycle detection (paper Sec. 4, interface version).
//
// Deterministic engines (both rotor-routers) are finite-state, so the
// sequence of configurations must enter a cycle. Brent's algorithm over
// `config_hash()` finds the period of that cycle for *any* sim::Engine with
// O(1) memory — no per-engine snapshot type needed. BrentProbe is the one
// implementation of it: detect_hash_cycle below feeds it every round, and
// the cycle-jump wrapper (sim/cycle_jump.hpp) feeds it stride-sampled
// hashes. Hash equality is probabilistic (64-bit FNV over the full
// configuration); callers that need collision-proof exactness use
// sim::detect_confirmed_cycle (sim/cycle_jump.hpp), which runs the same
// probe and then confirms with a full serialized-state comparison.

#include <cstdint>
#include <optional>

#include "sim/engine.hpp"

namespace rr::sim {

/// Incremental Brent cycle probe over an externally sampled hash stream.
/// Feed (hash, absolute round); a repeat against the stored tortoise
/// yields a candidate cycle length in *rounds* (the sample times need not
/// be evenly spaced — the candidate is simply now minus the tortoise's
/// round, which any genuine state repeat makes a period multiple).
class BrentProbe {
 public:
  /// Returns the candidate round count on a tortoise match.
  std::optional<std::uint64_t> feed(std::uint64_t hash, std::uint64_t round) {
    if (!primed_) {
      primed_ = true;
      tortoise_ = hash;
      tortoise_round_ = round;
      return std::nullopt;
    }
    if (hash == tortoise_) return round - tortoise_round_;
    if (++lambda_ == power_) {
      tortoise_ = hash;
      tortoise_round_ = round;
      power_ *= 2;
      lambda_ = 0;
    }
    return std::nullopt;
  }

  void reset() { *this = BrentProbe{}; }

 private:
  bool primed_ = false;
  std::uint64_t tortoise_ = 0;
  std::uint64_t tortoise_round_ = 0;
  std::uint64_t power_ = 1;
  std::uint64_t lambda_ = 0;
};

struct HashCycle {
  std::uint64_t period = 0;
  /// A round at which the engine is (with 64-bit-hash confidence) inside
  /// the cycle; equals the engine's time when detection succeeded.
  std::uint64_t detected_at = 0;
};

/// Advances `engine` until a configuration hash repeats (Brent), or until
/// `max_steps` additional rounds have elapsed. The engine is left at the
/// detection round on success.
inline std::optional<HashCycle> detect_hash_cycle(Engine& engine,
                                                  std::uint64_t max_steps) {
  BrentProbe probe;
  probe.feed(engine.config_hash(), 0);
  for (std::uint64_t steps = 1; steps <= max_steps; ++steps) {
    engine.step();
    if (const auto period = probe.feed(engine.config_hash(), steps)) {
      return HashCycle{*period, engine.time()};
    }
  }
  return std::nullopt;
}

}  // namespace rr::sim
