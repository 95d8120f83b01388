// Property and fuzz tests: randomized DAGs through both executors, ULV
// correctness across a (leaf, rank) parameter grid, and cross-format
// consistency sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix {
namespace {

using la::index_t;
using la::Matrix;

// ---------------------------------------------------------------- runtime

// Random DAG fuzz: layered random graphs where every task appends its id to
// a per-chain log; dependency order must hold in every interleaving.
TEST(ExecutorFuzz, RandomLayeredGraphsRespectDependencies) {
  Rng rng(501);
  for (int trial = 0; trial < 12; ++trial) {
    rt::TaskGraph g;
    const int chains = 3 + static_cast<int>(rng.index(5));
    const int depth = 2 + static_cast<int>(rng.index(6));
    std::vector<rt::DataId> chain_data;
    for (int c = 0; c < chains; ++c)
      chain_data.push_back(g.register_data("chain" + std::to_string(c)));
    // Shared datum creating random cross-chain edges. Its first toucher may
    // be a pure Read, so it is a graph input as far as dataflow analysis is
    // concerned (the executors analyze before running when
    // HATRIX_ANALYZE_DAG=1).
    rt::DataId shared = g.register_data("shared");
    g.mark_input(shared);

    auto log = std::make_shared<std::vector<std::vector<int>>>(
        static_cast<std::size_t>(chains));
    auto mu = std::make_shared<std::mutex>();
    for (int d = 0; d < depth; ++d) {
      for (int c = 0; c < chains; ++c) {
        std::vector<std::pair<rt::DataId, rt::Access>> acc = {
            {chain_data[static_cast<std::size_t>(c)], rt::Access::ReadWrite}};
        if (rng.uniform() < 0.3)
          acc.push_back({shared, rng.uniform() < 0.5 ? rt::Access::Read
                                                     : rt::Access::ReadWrite});
        g.insert_task("t" + std::to_string(d) + "_" + std::to_string(c), "k", {},
                      [log, mu, c, d] {
                        std::lock_guard<std::mutex> lock(*mu);
                        (*log)[static_cast<std::size_t>(c)].push_back(d);
                      },
                      std::move(acc));
      }
    }
    rt::ThreadPoolExecutor ex(1 + static_cast<int>(rng.index(4)));
    auto stats = ex.run(g);
    ASSERT_EQ(rt::validate_trace(g, stats), "") << "trial " << trial;
    for (int c = 0; c < chains; ++c) {
      const auto& seq = (*log)[static_cast<std::size_t>(c)];
      ASSERT_EQ(static_cast<int>(seq.size()), depth);
      for (int d = 0; d < depth; ++d) EXPECT_EQ(seq[static_cast<std::size_t>(d)], d);
      (*log)[static_cast<std::size_t>(c)].clear();
    }
  }
}

TEST(ExecutorFuzz, ForkJoinAgreesWithAsyncOnPhasedGraphs) {
  Rng rng(502);
  for (int trial = 0; trial < 6; ++trial) {
    auto build = [&](auto&& sink) {
      rt::TaskGraph g;
      rt::DataId d = g.register_data("acc");
      for (int phase = 0; phase < 4; ++phase)
        for (int i = 0; i < 5; ++i) {
          rt::Task t;
          t.name = "p" + std::to_string(phase) + "_" + std::to_string(i);
          t.kind = "k";
          t.work = [&sink, phase, i] { sink(phase * 5 + i); };
          t.accesses = {{d, rt::Access::ReadWrite}};
          t.phase = phase;
          g.insert_task(std::move(t));
        }
      return g;
    };
    // Unsigned: the rolling checksum is meant to wrap, not overflow.
    unsigned long async_result = 0, fj_result = 0;
    {
      auto sink = [&async_result](int v) {
        async_result = async_result * 31 + static_cast<unsigned long>(v);
      };
      auto g = build(sink);
      rt::ThreadPoolExecutor ex(3);
      (void)ex.run(g);
    }
    {
      auto sink = [&fj_result](int v) {
        fj_result = fj_result * 31 + static_cast<unsigned long>(v);
      };
      auto g = build(sink);
      rt::ThreadPoolExecutor ex(3, rt::Schedule::Phased);
      (void)ex.run(g);
    }
    // A single RW chain fully serializes both executors: identical order.
    EXPECT_EQ(async_result, fj_result);
  }
}

// ------------------------------------------------------------------- ULV

struct UlvGridCase {
  index_t n, leaf, rank;
};

class UlvParameterGrid : public ::testing::TestWithParam<UlvGridCase> {};

TEST_P(UlvParameterGrid, SolveErrorAtRoundoffAcrossGrid) {
  auto [n, leaf, rank] = GetParam();
  geom::Domain d = geom::grid2d(n);
  geom::ClusterTree tree(d, leaf);
  kernels::Yukawa k;
  kernels::KernelMatrix km(k, tree.points());
  fmt::KernelAccessor acc(km);
  auto h = fmt::build_hss(acc, {.leaf_size = leaf, .max_rank = rank, .tol = 0.0});
  auto f = ulv::HSSULV::factorize(h);
  Rng rng(503);
  std::vector<double> b = rng.normal_vector(n);
  EXPECT_LT(ulv::ulv_solve_error(h, f, b), 1e-10)
      << "n=" << n << " leaf=" << leaf << " rank=" << rank;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UlvParameterGrid,
    ::testing::Values(UlvGridCase{512, 64, 16}, UlvGridCase{512, 64, 48},
                      UlvGridCase{512, 128, 32}, UlvGridCase{1024, 64, 24},
                      UlvGridCase{1024, 128, 24}, UlvGridCase{1024, 256, 64},
                      UlvGridCase{1536, 96, 40}, UlvGridCase{2048, 256, 48}));

TEST(UlvProperty, FactorizationIsDeterministic) {
  Rng rng(504);
  auto h = fmt::make_random_spd_hss(512, 64, 12, rng);
  auto f1 = ulv::HSSULV::factorize(h);
  auto f2 = ulv::HSSULV::factorize(h);
  std::vector<double> b = rng.normal_vector(512);
  auto x1 = f1.solve(b);
  auto x2 = f2.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_EQ(x1[i], x2[i]);
}

TEST(UlvProperty, SolveIsLinearInRhs) {
  Rng rng(505);
  auto h = fmt::make_random_spd_hss(384, 48, 10, rng);
  auto f = ulv::HSSULV::factorize(h);
  std::vector<double> b1 = rng.normal_vector(384);
  std::vector<double> b2 = rng.normal_vector(384);
  std::vector<double> combo(384);
  for (std::size_t i = 0; i < 384; ++i) combo[i] = 2.0 * b1[i] - 3.0 * b2[i];
  auto x1 = f.solve(b1);
  auto x2 = f.solve(b2);
  auto xc = f.solve(combo);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < 384; ++i) {
    const double expect = 2.0 * x1[i] - 3.0 * x2[i];
    num += (xc[i] - expect) * (xc[i] - expect);
    den += expect * expect;
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12);
}

TEST(FormatProperty, HssDenseIsSymmetric) {
  geom::Domain d = geom::grid2d(700);
  geom::ClusterTree tree(d, 100);
  kernels::Matern k;
  kernels::KernelMatrix km(k, tree.points());
  fmt::KernelAccessor acc(km);
  auto h = fmt::build_hss(acc, {.leaf_size = 100, .max_rank = 20, .tol = 0.0});
  Matrix a = h.dense();
  Matrix at = la::transpose(a.view());
  EXPECT_LT(la::rel_error(a.view(), at.view()), 1e-13);
}

TEST(FormatProperty, CompressionNeverIncreasesSpectralMass) {
  // ||A_hss||_F <= ~||A||_F: compression only removes energy (up to the
  // skeleton approximations at upper levels).
  geom::Domain d = geom::grid2d(1024);
  geom::ClusterTree tree(d, 128);
  kernels::Yukawa k;
  kernels::KernelMatrix km(k, tree.points());
  fmt::KernelAccessor acc(km);
  Matrix a = km.dense();
  auto h = fmt::build_hss(acc, {.leaf_size = 128, .max_rank = 30, .tol = 0.0});
  Matrix rec = h.dense();
  EXPECT_LT(la::norm_fro(rec.view()), 1.001 * la::norm_fro(a.view()));
}

}  // namespace
}  // namespace hatrix
