// Edge-case and failure-injection tests across modules: degenerate shapes,
// zero ranks, pathological inputs, and the umbrella header.
#include <gtest/gtest.h>

#include "hatrix/hatrix.hpp"  // umbrella header must compile standalone

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

TEST(EdgeLinalg, EmptyMatrixOperations) {
  Matrix a(0, 0), b(0, 0), c(0, 0);
  EXPECT_NO_THROW(la::gemm(1.0, a.view(), la::Trans::No, b.view(), la::Trans::No,
                           0.0, c.view()));
  EXPECT_NO_THROW(la::potrf(a.view()));
  auto f = la::qr(Matrix(5, 0).view());
  EXPECT_EQ(f.q.cols(), 0);
  auto s = la::svd(Matrix(0, 0).view());
  EXPECT_TRUE(s.s.empty());
}

TEST(EdgeLinalg, OneByOneEverything) {
  Matrix a(1, 1);
  a(0, 0) = 4.0;
  la::potrf(a.view());
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  auto f = la::pivoted_qr(a.view(), 1, 0.0);
  EXPECT_EQ(f.rank, 1);
}

TEST(EdgeLinalg, OrthComplementOfFullBasisIsEmpty) {
  Rng rng(601);
  auto qf = la::qr(Matrix::random_normal(rng, 6, 6).view());
  Matrix c = la::orth_complement(qf.q.view());
  EXPECT_EQ(c.cols(), 0);
  EXPECT_EQ(c.rows(), 6);
}

TEST(EdgeLinalg, OrthComplementOfNothingIsIdentity) {
  Matrix u(4, 0);
  Matrix c = la::orth_complement(u.view());
  EXPECT_LT(la::rel_error(Matrix::identity(4).view(), c.view()), 1e-15);
}

TEST(EdgeLowRank, ZeroRankBlockBehaves) {
  lr::LowRank z(Matrix(5, 0), Matrix(3, 0));
  EXPECT_EQ(z.rank(), 0);
  Matrix d = z.dense();
  EXPECT_EQ(la::norm_fro(d.view()), 0.0);
  std::vector<double> x(3, 1.0), y(5, 2.0);
  z.matvec(1.0, x.data(), 1.0, y.data());
  for (double v : y) EXPECT_EQ(v, 2.0);
}

TEST(EdgeLowRank, CompressOfZeroMatrixIsRankZero) {
  Matrix zero(8, 8);
  auto c = lr::compress(zero.view(), 8, 1e-14);
  EXPECT_EQ(c.rank(), 0);
  auto t = lr::truncated_svd(zero.view(), 8, 1e-14);
  EXPECT_EQ(t.rank(), 0);
}

TEST(EdgeUlv, PartialFactorWithZeroRank) {
  // rank 0: the whole block is "redundant"; SS part is empty.
  Rng rng(602);
  Matrix d = Matrix::random_spd(rng, 8);
  Matrix u(8, 0);
  auto rot = ulv::diag_product(d.view(), u.view());
  auto res = ulv::partial_factor_rotated(std::move(rot), /*level=*/1, /*node=*/0);
  EXPECT_EQ(res.factor.k, 0);
  EXPECT_EQ(res.factor.l_rr.rows(), 8);
  EXPECT_EQ(res.ss_schur.rows(), 0);
}

TEST(EdgeUlv, PartialFactorWithFullRank) {
  // rank == m: nothing to eliminate; SS is the rotated block itself.
  Rng rng(603);
  Matrix d = Matrix::random_spd(rng, 8);
  auto qf = la::qr(Matrix::random_normal(rng, 8, 8).view());
  auto rot = ulv::diag_product(d.view(), qf.q.view());
  auto res = ulv::partial_factor_rotated(std::move(rot), /*level=*/1, /*node=*/0);
  EXPECT_EQ(res.factor.k, 8);
  EXPECT_EQ(res.factor.l_rr.rows(), 0);
  EXPECT_EQ(res.ss_schur.rows(), 8);
}

TEST(EdgeFormats, TwoPointProblem) {
  geom::Domain d = geom::grid2d(2);
  geom::ClusterTree tree(d, 1);
  kernels::Yukawa k;
  kernels::KernelMatrix km(k, tree.points());
  fmt::KernelAccessor acc(km);
  auto h = fmt::build_hss(acc, {.leaf_size = 1, .max_rank = 1, .tol = 0.0});
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b{1.0, 2.0};
  std::vector<double> ab;
  h.matvec(b, ab);
  auto x = f.solve(ab);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(EdgeFormats, BlrSingleTileIsJustDense) {
  Rng rng(604);
  Matrix a = Matrix::random_spd(rng, 32);
  fmt::DenseAccessor acc(a.view());
  auto blr = fmt::build_blr(acc, {.tile_size = 64, .max_rank = 8, .tol = 1e-8});
  EXPECT_EQ(blr.num_tiles(), 1);
  EXPECT_LT(la::rel_error(a.view(), blr.dense().view()), 1e-15);
}

TEST(EdgeDistsim, OneTaskGraph) {
  rt::TaskGraph g;
  rt::DataId d = g.register_data("x", 100);
  g.insert_task("only", "potrf", {16}, {}, {{d, rt::Access::ReadWrite}});
  distsim::Mapping map;
  map.num_procs = 4;
  map.task_owner = {2};
  distsim::CostModel cost(1.0);
  distsim::SimConfig cfg;
  cfg.procs = 4;
  cfg.cores_per_proc = 2;
  cfg.overhead = {0.0, 0.0, 5e-4};
  auto res = distsim::simulate(g, map, cost, cfg);
  EXPECT_NEAR(res.makespan, 16.0 * 16 * 16 / 3.0 / 1e9, 1e-12);
  EXPECT_EQ(res.messages, 0);
}

TEST(EdgeDistsim, EmptyGraphSimulates) {
  rt::TaskGraph g;
  distsim::Mapping map;
  map.num_procs = 2;
  distsim::CostModel cost(1.0);
  distsim::SimConfig cfg;
  cfg.procs = 2;
  auto res = distsim::simulate(g, map, cost, cfg);
  EXPECT_EQ(res.makespan, 0.0);
}

TEST(EdgeKernels, KernelMatrixSinglePoint) {
  kernels::Matern k;
  geom::Domain d = geom::grid2d(1);
  kernels::KernelMatrix km(k, d.points);
  EXPECT_DOUBLE_EQ(km.entry(0, 0), 1.0);
  std::vector<double> x{3.0}, y;
  km.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(EdgeRuntime, TaskWithNoAccessesRunsImmediately) {
  rt::TaskGraph g;
  bool ran = false;
  g.insert_task("free", "k", {}, [&ran] { ran = true; }, {});
  rt::ThreadPoolExecutor ex(1);
  auto stats = ex.run(g);
  EXPECT_TRUE(ran);
  EXPECT_EQ(rt::validate_trace(g, stats), "");
}

TEST(EdgeRuntime, ManyWorkersFewTasks) {
  rt::TaskGraph g;
  rt::DataId d = g.register_data("x");
  g.insert_task("t", "k", {}, [] {}, {{d, rt::Access::ReadWrite}});
  rt::ThreadPoolExecutor ex(16);
  auto stats = ex.run(g);
  EXPECT_EQ(rt::validate_trace(g, stats), "");
}

}  // namespace
}  // namespace hatrix
