// Build/link smoke suite: one end-to-end path through every layer so tier-1
// catches cross-layer link or ABI breakage even when the per-layer suites
// are skipped (ctest -L fast runs this in well under a second of setup).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "format/accessor.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "hatrix/drivers.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix {
namespace {

// kernel matrix -> HSS compress -> ULV factor -> solve, residual against the
// *true* (uncompressed) kernel matrix. max_rank = n/2 makes the HSS
// representation exact at every level, so the only error left is
// factorization roundoff.
TEST(BuildSanity, KernelToHssUlvSolveResidualSmall) {
  const la::index_t n = 512;
  geom::Domain domain = geom::grid2d(n);
  geom::ClusterTree tree(domain, 64);
  auto kernel = kernels::make_kernel("yukawa");
  kernels::KernelMatrix km(*kernel, tree.points());

  fmt::KernelAccessor acc(km);
  auto h = fmt::build_hss(acc, {.leaf_size = 64, .max_rank = n / 2, .tol = 0.0});
  auto f = ulv::HSSULV::factorize(h);

  Rng rng(2023);
  std::vector<double> b = rng.normal_vector(n);
  std::vector<double> x = f.solve(b);

  std::vector<double> ax;
  km.matvec(x, ax);
  double num = 0.0;
  for (la::index_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    num += (ax[u] - b[u]) * (ax[u] - b[u]);
  }
  double residual = std::sqrt(num) / la::norm2(b);
  EXPECT_LT(residual, 1e-8);
}

// Distributed-simulation path: DAG construction, mapping, and the DES all
// link and produce a sane outcome at a toy scale.
TEST(BuildSanity, SimulatedDriverRunsAtToyScale) {
  driver::SimExperiment cfg;
  cfg.n = 1024;
  cfg.leaf_size = 128;
  cfg.rank = 32;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  auto out = driver::run_simulated(driver::System::HatrixDTD, cfg);
  EXPECT_GT(out.factor_time, 0.0);
  EXPECT_GT(out.tasks, 0);
}

}  // namespace
}  // namespace hatrix
