// Tests for domains and the cluster tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "geometry/cluster_tree.hpp"
#include "geometry/domain.hpp"

namespace hatrix::geom {
namespace {

TEST(Domain, Grid2dSizesAndBounds) {
  for (index_t n : {16, 100, 1024}) {
    Domain d = grid2d(n);
    EXPECT_EQ(d.size(), n);
    for (const auto& p : d.points) {
      EXPECT_GE(p[0], 0.0);
      EXPECT_LE(p[0], 1.0);
      EXPECT_GE(p[1], 0.0);
      EXPECT_LE(p[1], 1.0);
      EXPECT_EQ(p[2], 0.0);
    }
  }
}

TEST(Domain, Grid2dPointsDistinct) {
  Domain d = grid2d(64);
  std::set<std::pair<double, double>> seen;
  for (const auto& p : d.points) seen.insert({p[0], p[1]});
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Domain, CircleOnUnitRadius) {
  Domain d = circle2d(32);
  for (const auto& p : d.points)
    EXPECT_NEAR(p[0] * p[0] + p[1] * p[1], 1.0, 1e-12);
}

TEST(Domain, DistKnownValue) {
  Point a{{0, 0, 0}}, b{{3, 4, 0}};
  EXPECT_DOUBLE_EQ(dist(a, b), 5.0);
}

TEST(Domain, RandomRespectsBounds) {
  Rng rng(3);
  Domain d = random2d(100, rng);
  for (const auto& p : d.points) {
    EXPECT_GE(p[0], 0.0);
    EXPECT_LT(p[0], 1.0);
  }
}

TEST(ClusterTree, LevelsAndNodeCounts) {
  Domain d = grid2d(256);
  ClusterTree tree(d, 32);
  EXPECT_EQ(tree.max_level(), 3);  // 256 / 2^3 = 32
  for (int l = 0; l <= tree.max_level(); ++l)
    EXPECT_EQ(tree.num_nodes(l), index_t{1} << l);
}

TEST(ClusterTree, NodesPartitionEachLevel) {
  Domain d = grid2d(250);  // non power of two
  ClusterTree tree(d, 16);
  for (int l = 0; l <= tree.max_level(); ++l) {
    index_t covered = 0;
    for (index_t i = 0; i < tree.num_nodes(l); ++i) {
      const auto& nd = tree.node(l, i);
      EXPECT_EQ(nd.begin, covered);
      covered = nd.end;
      EXPECT_GE(nd.size(), 0);
    }
    EXPECT_EQ(covered, d.size());
  }
}

TEST(ClusterTree, ChildrenTileParent) {
  Domain d = grid2d(512);
  ClusterTree tree(d, 64);
  for (int l = 0; l < tree.max_level(); ++l)
    for (index_t i = 0; i < tree.num_nodes(l); ++i) {
      const auto& parent = tree.node(l, i);
      const auto& c0 = tree.node(l + 1, 2 * i);
      const auto& c1 = tree.node(l + 1, 2 * i + 1);
      EXPECT_EQ(parent.begin, c0.begin);
      EXPECT_EQ(c0.end, c1.begin);
      EXPECT_EQ(c1.end, parent.end);
    }
}

TEST(ClusterTree, LeafSizesRespectBound) {
  Domain d = grid2d(1000);
  ClusterTree tree(d, 50);
  const int L = tree.max_level();
  for (index_t i = 0; i < tree.num_nodes(L); ++i)
    EXPECT_LE(tree.node(L, i).size(), 50);
}

TEST(ClusterTree, BalancedSizes) {
  Domain d = grid2d(1000);
  ClusterTree tree(d, 50);
  const int L = tree.max_level();
  index_t mn = d.size(), mx = 0;
  for (index_t i = 0; i < tree.num_nodes(L); ++i) {
    mn = std::min(mn, tree.node(L, i).size());
    mx = std::max(mx, tree.node(L, i).size());
  }
  EXPECT_LE(mx - mn, 1);
}

TEST(ClusterTree, PermIsAPermutation) {
  Rng rng(5);
  Domain d = random2d(333, rng);
  ClusterTree tree(d, 20);
  std::vector<index_t> p = tree.perm();
  std::sort(p.begin(), p.end());
  for (index_t i = 0; i < 333; ++i) EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
}

TEST(ClusterTree, PermMapsPointsBack) {
  Rng rng(6);
  Domain d = random2d(100, rng);
  ClusterTree tree(d, 10);
  for (index_t k = 0; k < 100; ++k) {
    const auto& reordered = tree.points()[static_cast<std::size_t>(k)];
    const auto& original = d.points[static_cast<std::size_t>(tree.perm()[static_cast<std::size_t>(k)])];
    EXPECT_EQ(reordered[0], original[0]);
    EXPECT_EQ(reordered[1], original[1]);
  }
}

TEST(ClusterTree, BisectionSeparatesSpace) {
  // After one split of a uniform grid, each half's bounding box is smaller
  // than the root's.
  Domain d = grid2d(1024);
  ClusterTree tree(d, 512);
  ASSERT_EQ(tree.max_level(), 1);
  auto box_diagonal = [&](const ClusterNode& nd) {
    double s = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      double lo = 1e300, hi = -1e300;
      for (index_t k = nd.begin; k < nd.end; ++k) {
        lo = std::min(lo, tree.points()[static_cast<std::size_t>(k)][c]);
        hi = std::max(hi, tree.points()[static_cast<std::size_t>(k)][c]);
      }
      s += (hi - lo) * (hi - lo);
    }
    return std::sqrt(s);
  };
  EXPECT_LT(box_diagonal(tree.node(1, 0)), box_diagonal(tree.node(0, 0)));
  EXPECT_LT(box_diagonal(tree.node(1, 1)), box_diagonal(tree.node(0, 0)));
}

TEST(ClusterTree, SingleNodeTreeWhenLeafCoversAll) {
  Domain d = grid2d(10);
  ClusterTree tree(d, 100);
  EXPECT_EQ(tree.max_level(), 0);
  EXPECT_EQ(tree.node(0, 0).size(), 10);
}

TEST(ClusterTree, ThrowsOnBadArgs) {
  Domain d = grid2d(10);
  EXPECT_THROW(ClusterTree(d, 0), Error);
  ClusterTree tree(d, 4);
  EXPECT_THROW((void)tree.node(99, 0), Error);
  EXPECT_THROW((void)tree.node(0, 5), Error);
}

}  // namespace
}  // namespace hatrix::geom
