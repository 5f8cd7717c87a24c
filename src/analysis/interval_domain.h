#ifndef T3_ANALYSIS_INTERVAL_DOMAIN_H_
#define T3_ANALYSIS_INTERVAL_DOMAIN_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gbt/forest.h"

namespace t3 {

/// Exact interval domain over doubles, shared by the translation validator
/// and the per-cell differential check (analysis/differential_check.h).
///
/// Every non-NaN double is mapped to an unsigned 64-bit *ordered key* such
/// that `a < b` (as doubles) iff `Key(a) < Key(b)`: positive doubles get
/// their bit pattern with the sign bit set, negative doubles get their bits
/// inverted. -0.0 is canonicalized to +0.0 first (they compare equal, so
/// they must share a key). The key space is a total order in which the set
/// `{x : x < t}` is exactly the integer range `[Key(-inf), Key(t) - 1]` —
/// strict-vs-nonstrict comparisons, ±inf, and denormals all become exact
/// integer interval arithmetic, which is what makes the cell analysis a
/// proof rather than an approximation.
///
/// One key slot is a phantom: the raw key of -0.0 (kMinusZeroRawKey) names
/// no canonical value. PredKey/SuccKey skip it so an interval is empty iff
/// it contains no real double.
inline uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline double DoubleFromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

inline constexpr uint64_t kMinusZeroRawKey = 0x7FFFFFFFFFFFFFFFULL;

/// Ordered key of a non-NaN double (callers must exclude NaN).
inline uint64_t OrderedKey(double value) {
  if (value == 0.0) value = 0.0;  // Collapse -0.0 onto +0.0.
  const uint64_t bits = DoubleBits(value);
  return (bits >> 63) != 0 ? ~bits : bits | 0x8000000000000000ULL;
}

/// The double a key names (never called on the phantom -0.0 slot).
inline double DoubleFromKey(uint64_t key) {
  const uint64_t bits =
      (key & 0x8000000000000000ULL) != 0 ? key & 0x7FFFFFFFFFFFFFFFULL : ~key;
  return DoubleFromBits(bits);
}

inline const uint64_t kMinKey = OrderedKey(
    -std::numeric_limits<double>::infinity());
inline const uint64_t kMaxKey = OrderedKey(
    std::numeric_limits<double>::infinity());

/// Largest key strictly below `key`, skipping the phantom -0.0 slot.
inline uint64_t PredKey(uint64_t key) {
  return key - (key == kMinusZeroRawKey + 1 ? 2 : 1);
}

/// Smallest key strictly above `key`, skipping the phantom -0.0 slot.
inline uint64_t SuccKey(uint64_t key) {
  return key + (key == kMinusZeroRawKey - 1 ? 2 : 1);
}

/// The set of values one feature can take at a point of a tree walk: the
/// doubles with ordered key in [lo, hi] (empty when lo > hi), plus NaN when
/// `nan` is set.
struct FeatureRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool nan = false;

  bool IntervalEmpty() const { return lo > hi; }
  bool Empty() const { return IntervalEmpty() && !nan; }
};

/// A feature-space box: one FeatureRange per feature. The box is feasible
/// iff every feature still has at least one admissible value.
struct FeatureBox {
  std::vector<FeatureRange> ranges;

  static FeatureBox Full(int num_features) {
    FeatureBox box;
    box.ranges.assign(static_cast<size_t>(num_features),
                      FeatureRange{kMinKey, kMaxKey, true});
    return box;
  }

  bool Feasible() const {
    for (const FeatureRange& range : ranges) {
      if (range.Empty()) return false;
    }
    return true;
  }

  /// The sub-box where x[feature] < threshold (NaN kept iff nan_side).
  FeatureBox Below(int feature, double threshold, bool nan_side) const {
    FeatureBox out = *this;
    FeatureRange& range = out.ranges[static_cast<size_t>(feature)];
    const uint64_t bound = PredKey(OrderedKey(threshold));
    if (bound < range.hi) range.hi = bound;
    range.nan = range.nan && nan_side;
    return out;
  }

  /// The sub-box where x[feature] >= threshold (NaN kept iff nan_side).
  FeatureBox AtOrAbove(int feature, double threshold, bool nan_side) const {
    FeatureBox out = *this;
    FeatureRange& range = out.ranges[static_cast<size_t>(feature)];
    const uint64_t bound = OrderedKey(threshold);
    if (bound > range.lo) range.lo = bound;
    range.nan = range.nan && nan_side;
    return out;
  }

  /// The sub-box where x[feature] > threshold (NaN kept iff nan_side).
  FeatureBox Above(int feature, double threshold, bool nan_side) const {
    FeatureBox out = *this;
    FeatureRange& range = out.ranges[static_cast<size_t>(feature)];
    const uint64_t bound = SuccKey(OrderedKey(threshold));
    if (bound > range.lo) range.lo = bound;
    range.nan = range.nan && nan_side;
    return out;
  }

  /// The sub-box where x[feature] <= threshold (NaN kept iff nan_side).
  FeatureBox AtOrBelow(int feature, double threshold, bool nan_side) const {
    FeatureBox out = *this;
    FeatureRange& range = out.ranges[static_cast<size_t>(feature)];
    const uint64_t bound = OrderedKey(threshold);
    if (bound < range.hi) range.hi = bound;
    range.nan = range.nan && nan_side;
    return out;
  }

  /// One concrete row inside the box — a witness for diagnostics. Features
  /// whose interval is empty (NaN-only) get NaN; others get their lower
  /// bound.
  std::vector<double> Witness() const {
    std::vector<double> row;
    row.reserve(ranges.size());
    for (const FeatureRange& range : ranges) {
      row.push_back(range.IntervalEmpty()
                        ? std::numeric_limits<double>::quiet_NaN()
                        : DoubleFromKey(range.lo));
    }
    return row;
  }
};

/// Walks an IR tree root to leaf, refining `box` by each split's predicate
/// (GoesLeft semantics: strict `<`, NaN routed by default_left), and calls
/// `fn(node_index, box)` for every leaf whose cell is feasible. The cells
/// passed to `fn` partition the feasible part of the initial box exactly —
/// the foundation of both the equivalence proof and the differential
/// check's witness rows. Iterative (explicit stack): adversarial tree depth
/// must not overflow the call stack. The tree must already be structurally valid (Forest::Validate).
template <typename LeafFn>
void ForEachLeafCell(const Tree& tree, const FeatureBox& box, LeafFn&& fn) {
  struct Frame {
    int node;
    FeatureBox box;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{0, box});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (!frame.box.Feasible()) continue;
    const TreeNode& node = tree.nodes[static_cast<size_t>(frame.node)];
    if (node.is_leaf) {
      fn(frame.node, frame.box);
      continue;
    }
    stack.push_back(Frame{
        node.right,
        frame.box.AtOrAbove(node.feature, node.threshold,
                            /*nan_side=*/!node.default_left)});
    stack.push_back(Frame{
        node.left, frame.box.Below(node.feature, node.threshold,
                                   /*nan_side=*/node.default_left)});
  }
}

}  // namespace t3

#endif  // T3_ANALYSIS_INTERVAL_DOMAIN_H_
