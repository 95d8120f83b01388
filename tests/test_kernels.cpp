// Tests for the Green's-function kernels (Table 3 of the paper), the Bessel
// functions behind Matérn, and the lazy KernelMatrix generator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/bessel.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"

namespace hatrix::kernels {
namespace {

using geom::Point;

constexpr double kPi = 3.14159265358979323846;

TEST(Bessel, HalfOrderClosedForm) {
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    const double expect = std::sqrt(kPi / (2.0 * x)) * std::exp(-x);
    EXPECT_NEAR(bessel_k(0.5, x), expect, 1e-12 * expect);
  }
}

TEST(Bessel, ThreeHalvesClosedForm) {
  for (double x : {0.2, 1.0, 4.0}) {
    const double expect = std::sqrt(kPi / (2.0 * x)) * std::exp(-x) * (1.0 + 1.0 / x);
    EXPECT_NEAR(bessel_k(1.5, x), expect, 1e-11 * expect);
  }
}

TEST(Bessel, KnownK0K1Values) {
  // Reference values from Abramowitz & Stegun tables.
  EXPECT_NEAR(bessel_k(0.0, 1.0), 0.4210244382, 1e-8);
  EXPECT_NEAR(bessel_k(1.0, 1.0), 0.6019072302, 1e-8);
  EXPECT_NEAR(bessel_k(0.0, 2.0), 0.1138938727, 1e-8);
  EXPECT_NEAR(bessel_k(1.0, 2.0), 0.1398658818, 1e-8);
}

TEST(Bessel, GeneralOrderAgainstRecurrence) {
  // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x) must hold for any nu.
  for (double nu : {0.3, 0.7, 1.2}) {
    for (double x : {0.5, 2.0, 8.0, 25.0}) {
      const double lhs = bessel_k(nu + 1.0, x);
      const double rhs = bessel_k(nu - 1.0, x) + (2.0 * nu / x) * bessel_k(nu, x);
      EXPECT_NEAR(lhs, rhs, 1e-8 * std::abs(lhs));
    }
  }
}

TEST(Bessel, MonotoneDecreasingInX) {
  double prev = bessel_k(0.5, 0.01);
  for (double x = 0.1; x < 30.0; x += 0.37) {
    const double v = bessel_k(0.5, x);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Bessel, InvalidArgumentThrows) {
  EXPECT_THROW(bessel_k(0.5, 0.0), Error);
  EXPECT_THROW(bessel_k(0.5, -1.0), Error);
}

TEST(Kernels, LaplaceMatchesFormula) {
  Laplace2D k;
  Point a{{0, 0, 0}}, b{{0.5, 0, 0}};
  EXPECT_DOUBLE_EQ(k(a, b), -std::log(1e-9 + 0.5));
  EXPECT_DOUBLE_EQ(k(a, a), -std::log(1e-9));
}

TEST(Kernels, YukawaMatchesFormula) {
  Yukawa k;
  Point a{{0, 0, 0}}, b{{1.0, 0, 0}};
  const double r = 1e-9 + 1.0;
  EXPECT_DOUBLE_EQ(k(a, b), std::exp(-r) / r);
}

TEST(Kernels, YukawaDiagonalIsHuge) {
  Yukawa k;
  Point a{{0.3, 0.4, 0}};
  EXPECT_GT(k(a, a), 1e8);  // 1/theta with theta = 1e-9
}

TEST(Kernels, MaternHalfIsExponentialCovariance) {
  // For rho = 0.5 the Matérn reduces to sigma^2 exp(-r/mu).
  Matern k(1.0, 0.03, 0.5);
  Point a{{0, 0, 0}};
  for (double r : {0.001, 0.01, 0.05, 0.2}) {
    Point b{{r, 0, 0}};
    EXPECT_NEAR(k(a, b), std::exp(-r / 0.03), 1e-10);
  }
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
}

TEST(Kernels, MaternLongRangeUnderflowsToZero) {
  Matern k(1.0, 0.03, 0.5);
  Point a{{0, 0, 0}}, b{{50.0, 0, 0}};
  EXPECT_EQ(k(a, b), 0.0);
}

TEST(Kernels, AllSymmetric) {
  Rng rng(31);
  std::vector<std::unique_ptr<Kernel>> ks;
  ks.push_back(std::make_unique<Laplace2D>());
  ks.push_back(std::make_unique<Yukawa>());
  ks.push_back(std::make_unique<Matern>());
  ks.push_back(std::make_unique<Gaussian>());
  for (int t = 0; t < 20; ++t) {
    Point a{{rng.uniform(), rng.uniform(), 0}};
    Point b{{rng.uniform(), rng.uniform(), 0}};
    for (const auto& k : ks) EXPECT_DOUBLE_EQ((*k)(a, b), (*k)(b, a));
  }
}

TEST(Kernels, FactoryKnowsAllNames) {
  for (const char* name : {"laplace2d", "yukawa", "matern", "gaussian"})
    EXPECT_EQ(make_kernel(name)->name(), name);
  EXPECT_THROW(make_kernel("nope"), Error);
}

class KernelSpd : public ::testing::TestWithParam<const char*> {};

// The evaluation relies on Cholesky factorizing these kernel matrices on a
// uniform 2D grid: verify positive definiteness at a representative size.
TEST_P(KernelSpd, PositiveDefiniteOnGrid) {
  auto kernel = make_kernel(GetParam());
  geom::Domain d = geom::grid2d(256);
  geom::ClusterTree tree(d, 32);
  KernelMatrix km(*kernel, tree.points());
  la::Matrix a = km.dense();
  EXPECT_NO_THROW(la::potrf(a.view()));
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, KernelSpd,
                         ::testing::Values("laplace2d", "yukawa", "matern"));

TEST(KernelMatrix, EntryAndBlockAgree) {
  Laplace2D k;
  geom::Domain d = geom::grid2d(64);
  KernelMatrix km(k, d.points);
  la::Matrix blk = km.block(8, 16, 4, 4);
  for (la::index_t j = 0; j < 4; ++j)
    for (la::index_t i = 0; i < 4; ++i)
      EXPECT_DOUBLE_EQ(blk(i, j), km.entry(8 + i, 16 + j));
}

TEST(KernelMatrix, DiagShiftOnlyOnDiagonal) {
  Yukawa k;
  geom::Domain d = geom::grid2d(16);
  KernelMatrix plain(k, d.points, 0.0);
  KernelMatrix shifted(k, d.points, 5.0);
  EXPECT_DOUBLE_EQ(shifted.entry(3, 3), plain.entry(3, 3) + 5.0);
  EXPECT_DOUBLE_EQ(shifted.entry(3, 4), plain.entry(3, 4));
}

TEST(KernelMatrix, MatvecMatchesDense) {
  Matern k;
  geom::Domain d = geom::grid2d(600);  // spans multiple 512-row panels
  KernelMatrix km(k, d.points);
  Rng rng(32);
  std::vector<double> x = rng.normal_vector(600);
  std::vector<double> y;
  km.matvec(x, y);
  la::Matrix a = km.dense();
  std::vector<double> y_ref(600, 0.0);
  la::gemv(1.0, a.view(), la::Trans::No, x.data(), 0.0, y_ref.data());
  double err = 0.0, den = 0.0;
  for (std::size_t i = 0; i < 600; ++i) {
    err += (y[i] - y_ref[i]) * (y[i] - y_ref[i]);
    den += y_ref[i] * y_ref[i];
  }
  EXPECT_LT(std::sqrt(err / den), 1e-13);
}

TEST(KernelMatrix, OutOfRangeBlockThrows) {
  Gaussian k;
  geom::Domain d = geom::grid2d(16);
  KernelMatrix km(k, d.points);
  EXPECT_THROW((void)km.block(10, 0, 10, 4), Error);
}

TEST(NewKernels, Laplace3dOnCube) {
  auto k = make_kernel("laplace3d");
  geom::Domain d = geom::grid3d(216);
  geom::ClusterTree tree(d, 27);
  KernelMatrix km(*k, tree.points());
  la::Matrix a = km.dense();
  // Symmetric and positive definite on the cube grid.
  EXPECT_NO_THROW(la::potrf(a.view()));
}

TEST(NewKernels, ImqIsPositiveDefiniteWithoutRegularization) {
  auto k = make_kernel("imq");
  Rng rng(302);
  geom::Domain d = geom::random2d(300, rng);
  geom::ClusterTree tree(d, 50);
  KernelMatrix km(*k, tree.points());
  la::Matrix a = km.dense();
  EXPECT_NO_THROW(la::potrf(a.view()));
}

TEST(NewKernels, Laplace3dMatchesFormula) {
  Laplace3D k(1e-9);
  Point a{{0, 0, 0}}, b{{0, 0, 2.0}};
  EXPECT_DOUBLE_EQ(k(a, b), 1.0 / (1e-9 + 2.0));
}

}  // namespace
}  // namespace hatrix::kernels
