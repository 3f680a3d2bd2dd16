#pragma once

// Range-add / point-query Fenwick tree (binary indexed tree).
//
// The lazy ring engine fast-forwards agents over long arcs, so per-node
// visit counters must accept "add 1 to every node in [l, r]" without an
// O(r - l) loop. A Fenwick tree over the difference array gives O(log n)
// range updates and O(log n) point reads, and converts from and to a dense
// value vector in O(n) (used when the engine switches step kernels).

#include <cstdint>
#include <vector>

#include "common/require.hpp"

namespace rr {

class RangeAddFenwick {
 public:
  RangeAddFenwick() = default;

  explicit RangeAddFenwick(std::size_t n) : n_(n), tree_(n + 1, 0) {}

  /// Builds in O(n) with at(i) == values[i] for all i.
  template <typename Int>
  explicit RangeAddFenwick(const std::vector<Int>& values)
      : n_(values.size()), tree_(values.size() + 1, 0) {
    for (std::size_t i = 1; i <= n_; ++i) {
      tree_[i] += static_cast<std::int64_t>(values[i - 1]) -
                  (i >= 2 ? static_cast<std::int64_t>(values[i - 2]) : 0);
      const std::size_t parent = i + lowbit(i);
      if (parent <= n_) tree_[parent] += tree_[i];
    }
  }

  std::size_t size() const { return n_; }

  /// values[i] += d for every i in [l, r] (inclusive).
  void add(std::size_t l, std::size_t r, std::int64_t d) {
    RR_ASSERT(l <= r && r < n_, "fenwick range out of bounds");
    point(l, d);
    if (r + 1 < n_) point(r + 1, -d);
  }

  /// Writes every value to `out` in O(n): undoes the build's parent
  /// folding to recover the difference array, then prefix-sums it.
  template <typename Int>
  void values(std::vector<Int>& out) const {
    std::vector<std::int64_t> diff(tree_);
    for (std::size_t i = n_; i >= 1; --i) {
      const std::size_t parent = i + lowbit(i);
      if (parent <= n_) diff[parent] -= diff[i];
    }
    out.resize(n_);
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      sum += diff[i + 1];
      out[i] = static_cast<Int>(sum);
    }
  }

  /// Current value at index i.
  std::int64_t at(std::size_t i) const {
    RR_ASSERT(i < n_, "fenwick index out of bounds");
    std::int64_t sum = 0;
    for (std::size_t j = i + 1; j > 0; j -= lowbit(j)) sum += tree_[j];
    return sum;
  }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

  void point(std::size_t i, std::int64_t d) {
    for (std::size_t j = i + 1; j <= n_; j += lowbit(j)) tree_[j] += d;
  }

  std::size_t n_ = 0;
  std::vector<std::int64_t> tree_;
};

}  // namespace rr
