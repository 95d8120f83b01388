// Tests for the HSS-ULV factorization (Alg. 2): exactness on the
// compressed operator, solve accuracy (Eq. 19), SPD rejection, edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::ulv {
namespace {

struct Problem {
  geom::Domain domain;
  std::unique_ptr<geom::ClusterTree> tree;
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  Problem(la::index_t n, la::index_t leaf, const std::string& kname = "yukawa") {
    domain = geom::grid2d(n);
    tree = std::make_unique<geom::ClusterTree>(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree->points());
  }
};

// Reference: dense solve of the *reconstructed* compressed matrix. ULV is an
// exact factorization of the compressed operator, so these must agree to
// roundoff regardless of compression quality.
std::vector<double> dense_reference_solve(const Matrix& rec,
                                          const std::vector<double>& b) {
  Matrix rhs(static_cast<index_t>(b.size()), 1);
  for (index_t i = 0; i < rhs.rows(); ++i) rhs(i, 0) = b[static_cast<std::size_t>(i)];
  Matrix x = la::solve_spd(rec.view(), rhs.view());
  std::vector<double> out(b.size());
  for (index_t i = 0; i < x.rows(); ++i) out[static_cast<std::size_t>(i)] = x(i, 0);
  return out;
}

double vec_rel_err(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += a[i] * a[i];
  }
  return std::sqrt(num / den);
}

class HssUlvKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(HssUlvKernels, SolveMatchesDenseSolveOfCompressedOperator) {
  Problem p(1024, 128, GetParam());
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 40, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(71);
  std::vector<double> b = rng.normal_vector(1024);
  auto x_ulv = f.solve(b);
  auto x_ref = dense_reference_solve(h.dense(), b);
  EXPECT_LT(vec_rel_err(x_ref, x_ulv), 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, HssUlvKernels,
                         ::testing::Values("laplace2d", "yukawa", "matern"));

TEST(HssUlv, SolveErrorEq19IsSmall) {
  Problem p(2048, 256, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 256, .max_rank = 50, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(72);
  std::vector<double> b = rng.normal_vector(2048);
  EXPECT_LT(ulv_solve_error(h, f, b), 1e-10);
}

TEST(HssUlv, DeepTreeMultipleLevels) {
  Problem p(1024, 64, "matern");  // 4 levels
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 30, .tol = 0.0});
  EXPECT_GE(h.max_level(), 4);
  auto f = HSSULV::factorize(h);
  Rng rng(73);
  std::vector<double> b = rng.normal_vector(1024);
  auto x_ulv = f.solve(b);
  auto x_ref = dense_reference_solve(h.dense(), b);
  EXPECT_LT(vec_rel_err(x_ref, x_ulv), 1e-9);
}

TEST(HssUlv, NonPowerOfTwoSize) {
  Problem p(900, 100, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 100, .max_rank = 30, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(74);
  std::vector<double> b = rng.normal_vector(900);
  auto x_ulv = f.solve(b);
  auto x_ref = dense_reference_solve(h.dense(), b);
  EXPECT_LT(vec_rel_err(x_ref, x_ulv), 1e-9);
}

TEST(HssUlv, FullRankBasesStillWork) {
  // max_rank >= leaf size: no compression, complement is empty everywhere at
  // the leaves; the algorithm must degrade gracefully.
  Problem p(256, 64, "yukawa");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 64, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  Rng rng(75);
  std::vector<double> b = rng.normal_vector(256);
  auto x_ulv = f.solve(b);
  auto x_ref = dense_reference_solve(h.dense(), b);
  EXPECT_LT(vec_rel_err(x_ref, x_ulv), 1e-9);
}

TEST(HssUlv, DegenerateSingleLeaf) {
  Problem p(50, 64, "matern");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 10, .tol = 0.0});
  EXPECT_EQ(h.max_level(), 0);
  auto f = HSSULV::factorize(h);
  Rng rng(76);
  std::vector<double> b = rng.normal_vector(50);
  auto x = f.solve(b);
  auto x_ref = dense_reference_solve(h.dense(), b);
  EXPECT_LT(vec_rel_err(x_ref, x), 1e-10);
}

TEST(HssUlv, RejectsIndefiniteMatrix) {
  // Shift the kernel matrix down until it is indefinite; ULV must throw.
  Problem p(256, 64, "matern");
  Matrix a = p.km->dense();
  for (index_t i = 0; i < a.rows(); ++i) a(i, i) -= 3.0;
  fmt::DenseAccessor acc(a.view());
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 64, .tol = 0.0});
  // Full-rank leaves have no redundant block, so the first pivot block the
  // one-worker DAG factors is node (1,0)'s; the typed error names it and is
  // still a hatrix::Error.
  EXPECT_THROW(HSSULV::factorize(h), Error);
  try {
    (void)HSSULV::factorize(h);
    FAIL() << "expected PivotError";
  } catch (const PivotError& e) {
    EXPECT_EQ(e.level(), 1);
    EXPECT_EQ(e.node(), 0);
    EXPECT_NE(std::string(e.what()).find("node (1,0)"), std::string::npos);
  }
  // A single-block HSS is all root: the failing pivot block is (0,0).
  auto h0 = fmt::build_hss(acc, {.leaf_size = 256, .max_rank = 64, .tol = 0.0});
  ASSERT_EQ(h0.max_level(), 0);
  try {
    (void)HSSULV::factorize(h0);
    FAIL() << "expected PivotError";
  } catch (const PivotError& e) {
    EXPECT_EQ(e.level(), 0);
    EXPECT_EQ(e.node(), 0);
  }
  // Rank 16 leaves a redundant block per leaf: leaf 0's partial
  // factorization, node (2,0), is the first pivot block to fail.
  auto h16 = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 16, .tol = 0.0});
  ASSERT_EQ(h16.max_level(), 2);
  try {
    (void)HSSULV::factorize(h16);
    FAIL() << "expected PivotError";
  } catch (const PivotError& e) {
    EXPECT_EQ(e.level(), 2);
    EXPECT_EQ(e.node(), 0);
    EXPECT_NE(std::string(e.what()).find("node (2,0)"), std::string::npos);
  }
}

TEST(HssUlv, SolveRejectsWrongLength) {
  Problem p(256, 64);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = 20, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  std::vector<double> bad(100, 1.0);
  EXPECT_THROW((void)f.solve(bad), Error);
}

TEST(HssUlv, MemoryBytesPositiveAndBounded) {
  Problem p(1024, 128);
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 30, .tol = 0.0});
  auto f = HSSULV::factorize(h);
  EXPECT_GT(f.memory_bytes(), 0);
  // Factor memory stays below the dense matrix footprint.
  EXPECT_LT(f.memory_bytes(), 1024 * 1024 * 8);
}

TEST(HssUlv, SampledConstructionSolvesAccurately) {
  Problem p(2048, 256, "matern");
  fmt::KernelAccessor acc(*p.km);
  auto h = fmt::build_hss(
      acc, {.leaf_size = 256, .max_rank = 60, .tol = 0.0, .sample_cols = 500});
  auto f = HSSULV::factorize(h);
  Rng rng(77);
  std::vector<double> b = rng.normal_vector(2048);
  EXPECT_LT(ulv_solve_error(h, f, b), 1e-9);
}

TEST(UlvCommon, PartialFactorReconstructs) {
  // After partial factorization, [L_RR 0; L_SR I] [L_RRᵀ L_SRᵀ; 0 SS_schur]
  // must reconstruct the rotated diagonal [RR SRᵀ; SR SS].
  Rng rng(81);
  const index_t m = 32, k = 8;
  Matrix d = Matrix::random_spd(rng, m);
  Matrix g = Matrix::random_normal(rng, m, k);
  auto qr_g = la::qr(g.view());
  auto rot = diag_product(d.view(), qr_g.q.view());
  auto res = partial_factor_rotated(rot.rotated.view(), k, std::move(rot.q_comp),
                                    /*level=*/1, /*node=*/0);
  const auto& f = res.factor;

  Matrix rr = la::matmul(f.l_rr.view(), f.l_rr.view(), la::Trans::No, la::Trans::Yes);
  Matrix rr_ref(m - k, m - k);
  Matrix dq = la::matmul(d.view(), f.q_comp.view());
  la::gemm(1.0, f.q_comp.view(), la::Trans::Yes, dq.view(), la::Trans::No, 0.0,
           rr_ref.view());
  EXPECT_LT(la::rel_error(rr_ref.view(), rr.view()), 1e-11);

  // SR = L_SR L_RRᵀ.
  Matrix sr = la::matmul(f.l_sr.view(), f.l_rr.view(), la::Trans::No, la::Trans::Yes);
  Matrix sr_ref = la::matmul(qr_g.q.view(), dq.view(), la::Trans::Yes, la::Trans::No);
  EXPECT_LT(la::rel_error(sr_ref.view(), sr.view()), 1e-11);

  // SS = schur + L_SR L_SRᵀ.
  Matrix ss = Matrix::from_view(res.ss_schur.view());
  la::syrk(1.0, f.l_sr.view(), la::Trans::No, 1.0, ss.view());
  Matrix du = la::matmul(d.view(), qr_g.q.view());
  Matrix ss_ref = la::matmul(qr_g.q.view(), du.view(), la::Trans::Yes, la::Trans::No);
  EXPECT_LT(la::rel_error(ss_ref.view(), ss.view()), 1e-11);
}

TEST(UlvCommon, ComplementIsOrthogonalToBasis) {
  Rng rng(82);
  Matrix g = Matrix::random_normal(rng, 40, 10);
  auto qr_g = la::qr(g.view());
  Matrix q = la::orth_complement(qr_g.q.view());
  ASSERT_EQ(q.cols(), 30);
  Matrix cross = la::matmul(q.view(), qr_g.q.view(), la::Trans::Yes, la::Trans::No);
  EXPECT_LT(la::norm_max(cross.view()), 1e-13);
  Matrix qtq = la::matmul(q.view(), q.view(), la::Trans::Yes, la::Trans::No);
  EXPECT_LT(la::rel_error(Matrix::identity(30).view(), qtq.view()), 1e-12);
}

}  // namespace
}  // namespace hatrix::ulv
