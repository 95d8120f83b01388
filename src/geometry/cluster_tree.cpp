#include "geometry/cluster_tree.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace hatrix::geom {

namespace {

struct Box {
  Point lo, hi;
};

Box bounding_box(const std::vector<Point>& pts, index_t begin, index_t end) {
  Box b;
  for (int d = 0; d < 3; ++d) {
    b.lo[static_cast<std::size_t>(d)] = pts[static_cast<std::size_t>(begin)][static_cast<std::size_t>(d)];
    b.hi[static_cast<std::size_t>(d)] = b.lo[static_cast<std::size_t>(d)];
  }
  for (index_t k = begin; k < end; ++k)
    for (std::size_t d = 0; d < 3; ++d) {
      b.lo[d] = std::min(b.lo[d], pts[static_cast<std::size_t>(k)][d]);
      b.hi[d] = std::max(b.hi[d], pts[static_cast<std::size_t>(k)][d]);
    }
  return b;
}

}  // namespace

ClusterTree::ClusterTree(const Domain& domain, index_t leaf_size) {
  const index_t n = domain.size();
  HATRIX_CHECK(n > 0, "cluster tree needs a non-empty domain");
  HATRIX_CHECK(leaf_size > 0, "leaf_size must be positive");

  points_ = domain.points;
  perm_.resize(static_cast<std::size_t>(n));
  std::iota(perm_.begin(), perm_.end(), index_t{0});

  // Depth so that ceil(n / 2^L) <= leaf_size.
  max_level_ = 0;
  while ((n + (index_t{1} << max_level_) - 1) / (index_t{1} << max_level_) > leaf_size)
    ++max_level_;

  levels_.assign(static_cast<std::size_t>(max_level_) + 1, {});
  levels_[0].push_back({0, n});

  // Recursive coordinate bisection, level by level. Sorting the interval
  // along its widest axis and cutting at the midpoint keeps the tree
  // complete (sizes differ by at most one across a level).
  for (int l = 0; l < max_level_; ++l) {
    auto& next = levels_[static_cast<std::size_t>(l) + 1];
    next.reserve(levels_[static_cast<std::size_t>(l)].size() * 2);
    for (const ClusterNode& nd : levels_[static_cast<std::size_t>(l)]) {
      Box box = bounding_box(points_, nd.begin, nd.end);
      std::size_t axis = 0;
      double width = -1.0;
      for (std::size_t d = 0; d < 3; ++d) {
        const double w = box.hi[d] - box.lo[d];
        if (w > width) {
          width = w;
          axis = d;
        }
      }
      // Sort [begin, end) of (points_, perm_) jointly along the axis.
      std::vector<index_t> order(static_cast<std::size_t>(nd.size()));
      std::iota(order.begin(), order.end(), index_t{0});
      std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
        return points_[static_cast<std::size_t>(nd.begin + a)][axis] <
               points_[static_cast<std::size_t>(nd.begin + b)][axis];
      });
      std::vector<Point> tmp_pts(static_cast<std::size_t>(nd.size()));
      std::vector<index_t> tmp_perm(static_cast<std::size_t>(nd.size()));
      for (index_t k = 0; k < nd.size(); ++k) {
        tmp_pts[static_cast<std::size_t>(k)] =
            points_[static_cast<std::size_t>(nd.begin + order[static_cast<std::size_t>(k)])];
        tmp_perm[static_cast<std::size_t>(k)] =
            perm_[static_cast<std::size_t>(nd.begin + order[static_cast<std::size_t>(k)])];
      }
      std::copy(tmp_pts.begin(), tmp_pts.end(),
                points_.begin() + static_cast<std::ptrdiff_t>(nd.begin));
      std::copy(tmp_perm.begin(), tmp_perm.end(),
                perm_.begin() + static_cast<std::ptrdiff_t>(nd.begin));

      const index_t mid = nd.begin + (nd.size() + 1) / 2;
      next.push_back({nd.begin, mid});
      next.push_back({mid, nd.end});
    }
  }
}

const ClusterNode& ClusterTree::node(int level, index_t i) const {
  HATRIX_CHECK(level >= 0 && level <= max_level_, "level out of range");
  HATRIX_CHECK(i >= 0 && i < num_nodes(level), "node index out of range");
  return levels_[static_cast<std::size_t>(level)][static_cast<std::size_t>(i)];
}

}  // namespace hatrix::geom
