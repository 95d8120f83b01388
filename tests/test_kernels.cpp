// Tests for the Green's-function kernels (Table 3 of the paper), the
// vectorizable exp behind Yukawa and Matérn, and the lazy KernelMatrix
// generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"

namespace hatrix::kernels {
namespace {

using geom::Point;
using la::index_t;

constexpr double kPi = 3.14159265358979323846;

// The smallest exp argument whose result is a normal number.
const double kLnDblMin = std::log(DBL_MIN);

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(VExp, MatchesLibmOverTheKernelRange) {
  // Dense sweep of [-745, 0] with a step that walks through many mantissas,
  // plus the edges of the normal range.
  std::vector<double> xs{0.0, -0.0, -1e-300, kLnDblMin, std::nextafter(kLnDblMin, 0.0),
                         std::nextafter(kLnDblMin, -1e9), -708.0, -709.0, -745.0,
                         -745.2, -800.0, -1e300};
  for (double x = 0.0; x >= -745.0; x -= 1.2345e-4) xs.push_back(x);
  double worst = 0.0;
  for (double x : xs) {
    const double want = std::exp(x);
    const double got = vexp(x);
    if (want >= DBL_MIN) {
      worst = std::max(worst, std::abs(got - want) / want);
    } else {
      ASSERT_LE(std::abs(got - want), DBL_MIN) << "x = " << x;
    }
  }
  EXPECT_LT(worst, 1e-15);
  EXPECT_EQ(vexp(0.0), 1.0);
  EXPECT_EQ(vexp(-800.0), 0.0);
  EXPECT_TRUE(std::isnan(vexp(std::numeric_limits<double>::quiet_NaN())));
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
  // For nu = 1/2 the Matérn reduces to sigma^2 exp(-r/mu).
  Matern k(1.0, 0.03, 0.5);
  Point a{{0, 0, 0}};
  for (double r : {0.001, 0.01, 0.05, 0.2}) {
    Point b{{r, 0, 0}};
    EXPECT_NEAR(k(a, b), std::exp(-r / 0.03), 1e-15);
  }
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
}

TEST(Kernels, MaternHalfIntegerClosedForms) {
  // nu = 3/2: sigma^2 (1 + z) e^{-z}; nu = 5/2: sigma^2 (1 + z + z^2/3) e^{-z}.
  const double sigma = 1.5, mu = 0.2;
  Matern k32(sigma, mu, 1.5), k52(sigma, mu, 2.5);
  Point a{{0, 0, 0}};
  for (double r : {0.01, 0.1, 0.5, 2.0}) {
    Point b{{0.6 * r, 0.8 * r, 0}};
    const double z = r / mu, s2 = sigma * sigma;
    EXPECT_NEAR(k32(a, b), s2 * (1.0 + z) * std::exp(-z), 1e-14 * s2);
    EXPECT_NEAR(k52(a, b), s2 * (1.0 + z + z * z / 3.0) * std::exp(-z), 1e-14 * s2);
  }
  EXPECT_DOUBLE_EQ(k32(a, a), sigma * sigma);
  EXPECT_DOUBLE_EQ(k52(a, a), sigma * sigma);
}

TEST(Kernels, MaternMatchesBesselDefinitionAtHalfIntegers) {
  // sigma^2 / (2^{nu-1} Gamma(nu)) z^nu K_nu(z) with the half-integer
  // Bessel closed forms K_nu(z) = sqrt(pi / (2z)) e^{-z} q_nu(1/z):
  // q_{1/2} = 1, q_{3/2} = 1 + t, q_{5/2} = 1 + 3t + 3t^2.
  const double mu = 0.03;
  for (double nu : {0.5, 1.5, 2.5}) {
    Matern k(1.0, mu, nu);
    for (double r : {0.002, 0.03, 0.1}) {
      const double z = r / mu, t = 1.0 / z;
      const double q = nu == 0.5 ? 1.0 : (nu == 1.5 ? 1.0 + t : 1.0 + 3.0 * t + 3.0 * t * t);
      const double bessel = std::sqrt(kPi / (2.0 * z)) * std::exp(-z) * q;
      const double want = std::pow(z, nu) * bessel / (std::pow(2.0, nu - 1.0) * std::tgamma(nu));
      const Point a{{0, 0, 0}}, b{{r, 0, 0}};
      EXPECT_NEAR(k(a, b), want, 1e-13 * want) << "nu = " << nu << ", r = " << r;
    }
  }
}

TEST(Kernels, MaternRejectsOtherSmoothness) {
  for (double nu : {0.0, 0.7, 1.0, 3.5}) {
    try {
      Matern k(1.0, 0.03, nu);
      ADD_FAILURE() << "nu = " << nu << " accepted";
    } catch (const Error& e) {
      std::ostringstream nu_text;
      nu_text << "nu = " << nu;
      EXPECT_NE(std::string(e.what()).find(nu_text.str()), std::string::npos) << e.what();
    }
  }
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
  ks.push_back(std::make_unique<Matern>(1.0, 0.03, 2.5));
  for (int t = 0; t < 20; ++t) {
    Point a{{rng.uniform(), rng.uniform(), 0}};
    Point b{{rng.uniform(), rng.uniform(), 0}};
    for (const auto& k : ks) EXPECT_DOUBLE_EQ((*k)(a, b), (*k)(b, a));
  }
}

TEST(Kernels, FactoryKnowsAllNames) {
  for (const char* name : {"laplace2d", "yukawa", "matern"})
    EXPECT_EQ(make_kernel(name)->name(), name);
  EXPECT_THROW(make_kernel("nope"), Error);
  EXPECT_THROW(make_kernel("gaussian"), Error);
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

// ---------------------------------------------------------- block path --

// One kernel under test: its points are spread over a cube of side `side`,
// wide enough that Yukawa and Matérn reach exp arguments below ln(DBL_MIN).
struct BlockCase {
  std::string label;
  std::unique_ptr<Kernel> kernel;
  double side;
  std::function<double(double)> exp_arg;    // argument of e^x at distance r
  std::function<double(double)> prefactor;  // entry = prefactor(r) * e^{exp_arg(r)}
};

std::vector<BlockCase> block_cases() {
  std::vector<BlockCase> cs;
  cs.push_back({"laplace2d", std::make_unique<Laplace2D>(), 0.5,
                [](double) { return 0.0; }, [](double) { return 1.0; }});
  cs.push_back({"yukawa", std::make_unique<Yukawa>(), 600.0,
                [](double r) { return -(1e-9 + r); },
                [](double r) { return 1.0 / (1e-9 + r); }});
  for (double nu : {0.5, 1.5, 2.5}) {
    const double c1 = nu == 0.5 ? 0.0 : 1.0, c2 = nu == 2.5 ? 1.0 / 3.0 : 0.0;
    cs.push_back({"matern nu=" + std::to_string(nu), std::make_unique<Matern>(1.0, 0.03, nu),
                  20.0, [](double r) { return -r / 0.03; },
                  [c1, c2](double r) {
                    const double z = r / 0.03;
                    return 1.0 + z * (c1 + c2 * z);
                  }});
  }
  return cs;
}

std::vector<Point> cube_points(index_t n, double side, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (index_t i = 0; i < n; ++i)
    pts.push_back(Point{{side * rng.uniform(), side * rng.uniform(), side * rng.uniform()}});
  return pts;
}

// Compares block entry (i, j), the kernel at (rows[r0+i], cols[c0+j]),
// against the scalar libm oracle. Relative 1e-12 where the result is a
// normal number; where the exp argument is below ln(DBL_MIN) (flushed to 0)
// or the result is subnormal, absolute DBL_MIN times the smooth prefactor.
void expect_matches_oracle(const BlockCase& c, const std::vector<Point>& pts, index_t r0,
                           index_t c0, la::ConstMatrixView got, int& checked_flushed) {
  for (index_t j = 0; j < got.cols; ++j)
    for (index_t i = 0; i < got.rows; ++i) {
      const Point& a = pts[static_cast<std::size_t>(r0 + i)];
      const Point& b = pts[static_cast<std::size_t>(c0 + j)];
      const double want = (*c.kernel)(a, b);
      const double r = geom::dist(a, b);
      const double v = got(i, j);
      if (c.exp_arg(r) < kLnDblMin || std::abs(want) < DBL_MIN) {
        ++checked_flushed;
        ASSERT_LE(std::abs(v - want), DBL_MIN * std::max(1.0, std::abs(c.prefactor(r))))
            << c.label << " r = " << r;
      } else {
        ASSERT_LE(std::abs(v - want), 1e-12 * std::abs(want))
            << c.label << " r = " << r << " got " << v << " want " << want;
      }
    }
}

TEST(KernelBlock, FillMatchesScalarOracleOnEveryShape) {
  for (const BlockCase& c : block_cases()) {
    const std::vector<Point> pts = cube_points(768, c.side, 41);
    std::vector<double> x, y, z;
    for (const Point& p : pts) x.push_back(p[0]), y.push_back(p[1]), z.push_back(p[2]);
    auto at = [&](index_t i0) {
      const auto o = static_cast<std::size_t>(i0);
      return Coords{x.data() + o, y.data() + o, z.data() + o};
    };
    int flushed = 0;
    struct Shape {
      index_t r0, c0, m, n;
    };
    for (const Shape& s : {Shape{0, 0, 1, 1}, Shape{3, 3, 1, 1}, Shape{5, 100, 13, 37},
                           Shape{0, 0, 256, 768}}) {
      la::Matrix out(s.m, s.n);
      c.kernel->fill(at(s.r0), at(s.c0), out.view());
      expect_matches_oracle(c, pts, s.r0, s.c0, out.view(), flushed);
    }
    // A view whose leading dimension exceeds its row count: entries outside
    // the view stay untouched.
    la::Matrix big(50, 40);
    for (index_t j = 0; j < 40; ++j)
      for (index_t i = 0; i < 50; ++i) big(i, j) = -7.0;
    const la::MatrixView view = big.view().block(4, 6, 20, 30);
    c.kernel->fill(at(200), at(300), view);
    expect_matches_oracle(c, pts, 200, 300, view, flushed);
    for (index_t j = 0; j < 40; ++j)
      for (index_t i = 0; i < 50; ++i)
        if (i < 4 || i >= 24 || j < 6 || j >= 36) {
          EXPECT_EQ(big(i, j), -7.0);
        }
    if (c.label != "laplace2d") {
      EXPECT_GT(flushed, 0) << c.label << ": no underflow exercised";
    }
  }
}

TEST(KernelBlock, EntriesAreIndependentOfTheirPositionInABlock) {
  // fill_block, the 1 x 1 block (entry) and gather over the same indices
  // produce the same bits for every entry, with a diagonal shift in play.
  for (const BlockCase& c : block_cases()) {
    const std::vector<Point> pts = cube_points(768, c.side, 43);
    const KernelMatrix km(*c.kernel, pts, 2.5);
    la::Matrix blk(256, 768);
    km.fill_block(0, 0, blk.view());
    std::vector<index_t> rows(256), cols(768);
    for (index_t i = 0; i < 256; ++i) rows[static_cast<std::size_t>(i)] = i;
    for (index_t j = 0; j < 768; ++j) cols[static_cast<std::size_t>(j)] = j;
    la::Matrix gathered(256, 768);
    km.gather(rows, cols, gathered.view());
    la::Matrix small = km.block(5, 100, 13, 37);
    int differ = 0;
    for (index_t j = 0; j < 768; ++j)
      for (index_t i = 0; i < 256; ++i) {
        const double v = blk(i, j);
        differ += !same_bits(v, km.entry(i, j)) || !same_bits(v, gathered(i, j));
        if (i >= 5 && i < 18 && j >= 100 && j < 137)
          differ += !same_bits(v, small(i - 5, j - 100));
      }
    EXPECT_EQ(differ, 0) << c.label;
  }
}

TEST(KernelBlock, GatherShiftsOnlyWhereRowEqualsColumn) {
  Yukawa k;
  const std::vector<Point> pts = cube_points(16, 1.0, 44);
  const KernelMatrix plain(k, pts, 0.0), shifted(k, pts, 10.0);
  const std::vector<index_t> rows{3, 3, 5, 7, 5}, cols{3, 5, 5, 2, 3, 3};
  la::Matrix a(5, 6), b(5, 6);
  plain.gather(rows, cols, a.view());
  shifted.gather(rows, cols, b.view());
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 5; ++i) {
      const bool diag = rows[static_cast<std::size_t>(i)] == cols[static_cast<std::size_t>(j)];
      EXPECT_TRUE(same_bits(b(i, j), diag ? a(i, j) + 10.0 : a(i, j))) << i << "," << j;
    }
}

TEST(KernelBlock, GatherRejectsOutOfRangeIndices) {
  Matern k;
  const KernelMatrix km(k, cube_points(16, 1.0, 45));
  la::Matrix out(2, 2);
  EXPECT_THROW(km.gather({0, 16}, {1, 2}, out.view()), Error);
  EXPECT_THROW(km.gather({0, 1}, {-1, 2}, out.view()), Error);
  EXPECT_THROW(km.gather({0}, {1, 2}, out.view()), Error);  // shape mismatch
}

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
  Yukawa k;
  geom::Domain d = geom::grid2d(16);
  KernelMatrix km(k, d.points);
  EXPECT_THROW((void)km.block(10, 0, 10, 4), Error);
  EXPECT_THROW((void)km.entry(16, 0), Error);
}

}  // namespace
}  // namespace hatrix::kernels
