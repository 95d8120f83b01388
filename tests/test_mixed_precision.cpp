// End-to-end mixed-precision storage test (the Ablation-E-adjacent accuracy
// story): compress the N=8192 Matérn covariance twice from the same
// accessor — once at full FP64 storage, once with
// HSSOptions::precision = MixedFP32, which demotes every low-rank basis and
// coupling block to FP32 after construction. The mixed build must
//
//   (a) cut the resident low-rank footprint by >= 40% (the acceptance
//       floor; FP32 halves the payload, so the headroom is real),
//   (b) after iterative refinement, solve the system with a residual
//       against the TRUE dense kernel operator within 10x of the FP64
//       pipeline's — FP32 storage error (~1e-7 relative) hides beneath the
//       sampled-compression error, so demotion is numerically free at
//       solver accuracy,
//   (c) occupy a distinct SolverCache slot (SolverKey carries the precision
//       mode: same kernel/geometry/options at different storage precisions
//       are different factorizations).
//
// Carries the `slow` label: two guarded sampled builds at N=8192.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "format/accessor.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/cluster_tree.hpp"
#include "hatrix/solver_cache.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix {
namespace {

using la::index_t;

constexpr index_t kN = 8192;

struct MaternProblem {
  geom::Domain sites;
  std::unique_ptr<geom::ClusterTree> tree;
  kernels::Matern cov{1.0, 0.03, 0.5};
  std::unique_ptr<kernels::KernelMatrix> km;
  std::vector<double> b;

  MaternProblem() {
    Rng rng(11);
    sites = geom::random2d(kN, rng);
    tree = std::make_unique<geom::ClusterTree>(sites, 256);
    km = std::make_unique<kernels::KernelMatrix>(cov, tree->points(), 1e-4);
    Rng brng(7);
    b = brng.normal_vector(kN);
  }

  /// The kriging_matern setting with the accuracy guard on; `precision`
  /// is the only thing the two builds vary.
  [[nodiscard]] fmt::HSSOptions opts(fmt::PrecisionMode p) const {
    return {.leaf_size = 256,
            .max_rank = 80,
            .sample_cols = 512,
            .guard_tol = 1e-4,
            .precision = p};
  }
};

const MaternProblem& problem() {
  static const MaternProblem p;
  return p;
}

/// ||b - A_dense x|| / ||b|| against the true kernel operator (streamed
/// dense matvec, not the compressed surrogate).
double true_residual(const MaternProblem& p, const std::vector<double>& x) {
  std::vector<double> ax;
  p.km->matvec(x, ax);
  double rn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < p.b.size(); ++i) {
    const double r = p.b[i] - ax[i];
    rn += r * r;
    bn += p.b[i] * p.b[i];
  }
  return std::sqrt(rn / bn);
}

TEST(MixedPrecision, FootprintAndRefinedResidualOnMatern8192) {
  const auto& p = problem();
  fmt::KernelAccessor acc(*p.km);

  fmt::HSSMatrix h64 =
      fmt::build_hss(acc, p.opts(fmt::PrecisionMode::FP64), 2);
  fmt::HSSMatrix hm =
      fmt::build_hss(acc, p.opts(fmt::PrecisionMode::MixedFP32), 2);

  ASSERT_FALSE(h64.mixed());
  ASSERT_TRUE(hm.mixed());

  // (a) Low-rank resident bytes: FP32 storage must cut >= 40%.
  const auto b64 = h64.lowrank_bytes();
  const auto bm = hm.lowrank_bytes();
  ASSERT_GT(b64, 0);
  EXPECT_LE(static_cast<double>(bm), 0.6 * static_cast<double>(b64))
      << "mixed lowrank bytes " << bm << " vs fp64 " << b64;

  // Both modes must factorize (demotion happens after the guard accepted
  // the build; the promoted FP32 operator stays positive definite).
  auto f64 = ulv::HSSULV::factorize(h64);
  auto fm = ulv::HSSULV::factorize(hm);

  // (b) Residuals against the true dense operator.
  const double r64 = true_residual(p, f64.solve(p.b));
  const double rm_direct = true_residual(p, fm.solve(p.b));
  std::vector<double> hist;
  const double rm_ir = true_residual(p, fm.solve_refined(p.b, 2, &hist));

  // Sanity bound on the baseline: the true-operator residual of a
  // compressed solve is the compression error amplified by cond(A) (the
  // 1e-4 nugget puts cond(A) near 1e4, so guard_tol=1e-4 lands around
  // 1e-2) — the meaningful criterion is the ratio below, which shows FP32
  // storage error vanishing beneath the compression error.
  EXPECT_LT(r64, 0.1);
  EXPECT_LE(rm_ir, 10.0 * r64)
      << "mixed+IR residual " << rm_ir << " vs fp64 baseline " << r64
      << " (direct mixed: " << rm_direct << ")";

  // The refinement history instruments the accuracy cost: iterations+1
  // relative residuals against the compressed mixed operator, finite and
  // non-degenerate, ending at the direct-solver level.
  ASSERT_EQ(hist.size(), 3u);
  for (double r : hist) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0.0);
  }
  EXPECT_LT(hist.back(), 1e-8)
      << "refinement failed to converge on the compressed operator";
}

TEST(MixedPrecision, SolverKeyDistinguishesPrecisionModes) {
  const auto& p = problem();
  const driver::SolverKey k64 =
      driver::make_solver_key("matern(sigma=1,mu=0.03,rho=0.5)+nugget=1e-4",
                              p.tree->points(),
                              p.opts(fmt::PrecisionMode::FP64));
  const driver::SolverKey km =
      driver::make_solver_key("matern(sigma=1,mu=0.03,rho=0.5)+nugget=1e-4",
                              p.tree->points(),
                              p.opts(fmt::PrecisionMode::MixedFP32));
  EXPECT_EQ(k64.precision, "fp64");
  EXPECT_EQ(km.precision, "mixed-fp32");
  EXPECT_FALSE(k64 == km);
  EXPECT_NE(driver::SolverKeyHash{}(k64), driver::SolverKeyHash{}(km));

  // Two cache entries, not one: requesting both modes builds twice.
  driver::SolverCache cache(4);
  fmt::KernelAccessor acc(*p.km);
  auto build64 = [&](fmt::HSSBuildReport& rep) {
    return fmt::build_hss(acc, p.opts(fmt::PrecisionMode::FP64), 2, &rep);
  };
  auto buildm = [&](fmt::HSSBuildReport& rep) {
    return fmt::build_hss(acc, p.opts(fmt::PrecisionMode::MixedFP32), 2, &rep);
  };
  auto op64 = cache.get_or_build(k64, build64);
  auto opm = cache.get_or_build(km, buildm);
  EXPECT_FALSE(op64->matrix().mixed());
  EXPECT_TRUE(opm->matrix().mixed());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.get_or_build(km, buildm), opm);  // hit, no rebuild
  EXPECT_EQ(cache.stats().hits, 1);
}

}  // namespace
}  // namespace hatrix
