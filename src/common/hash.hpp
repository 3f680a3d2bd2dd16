#pragma once

// FNV-1a configuration hashing, shared by every sim::Engine implementation
// so the engines' config_hash values stay structurally comparable and a
// change to the mixing never has to be replicated per engine.

#include <cstdint>

#include "common/rng.hpp"

namespace rr {

class Fnv1a {
 public:
  constexpr void mix(std::uint64_t x) {
    h_ ^= x;
    h_ *= 1099511628211ULL;
  }
  constexpr std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// SplitMix64-style stream mixing: hashes (master, stream) into a seed that
/// is statistically independent across both arguments (it is the splitmix64
/// finalizer applied to the stream-th state after `master`). This is the
/// one sanctioned way to derive per-trial / per-thread seeds — see
/// sim::derive_seed — replacing ad-hoc `seed + 31 * i` arithmetic, whose
/// nearby streams are correlated for counter-based generators.
constexpr std::uint64_t mix_seed(std::uint64_t master, std::uint64_t stream) {
  std::uint64_t state = master + 0x9e3779b97f4a7c15ULL * stream;
  return splitmix64(state);
}

}  // namespace rr
