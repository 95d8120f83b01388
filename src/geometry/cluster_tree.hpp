#pragma once
/// \file cluster_tree.hpp
/// \brief Binary cluster tree over a point set.
///
/// HSS matrices need a hierarchical, contiguous index partition. The tree is
/// built by recursive coordinate bisection (split the widest bounding-box
/// axis at the median), which reorders the points once; thereafter every tree
/// node is a contiguous index interval of the reordered set.
///
/// Level convention follows the paper: level 0 is the root (one node), level
/// `max_level()` is the leaf level with `2^max_level` nodes; node `i` at
/// level `l` has children `2i` and `2i+1` at level `l+1`.

#include <vector>

#include "geometry/domain.hpp"

namespace hatrix::geom {

/// Contiguous index interval [begin, end) of the reordered point set.
struct ClusterNode {
  index_t begin = 0;
  index_t end = 0;

  [[nodiscard]] index_t size() const { return end - begin; }
};

class ClusterTree {
 public:
  /// Partition `domain` until every leaf holds at most `leaf_size` points.
  /// The tree is a complete binary tree: all leaves are on the same level
  /// (intervals are split at the midpoint, so sizes differ by at most one).
  ClusterTree(const Domain& domain, index_t leaf_size);

  /// Leaf level index (0 = root only, i.e. no partitioning happened).
  [[nodiscard]] int max_level() const { return max_level_; }

  /// Number of nodes at `level` (== 2^level).
  [[nodiscard]] index_t num_nodes(int level) const { return index_t{1} << level; }

  /// The index interval of node `i` at `level`.
  [[nodiscard]] const ClusterNode& node(int level, index_t i) const;

  /// Points in tree order (reordered copy of the input domain).
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  /// `perm()[k]` is the original index of reordered point k.
  [[nodiscard]] const std::vector<index_t>& perm() const { return perm_; }

  [[nodiscard]] index_t size() const { return static_cast<index_t>(points_.size()); }

 private:
  int max_level_ = 0;
  std::vector<std::vector<ClusterNode>> levels_;  // levels_[l][i]
  std::vector<Point> points_;
  std::vector<index_t> perm_;
};

}  // namespace hatrix::geom
