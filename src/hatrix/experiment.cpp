#include "hatrix/experiment.hpp"

#include <cmath>

#include "blrchol/blr_cholesky.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "format/accessor.hpp"
#include "format/blr.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::driver {

namespace {

struct GridProblem {
  std::unique_ptr<kernels::Kernel> kernel;
  std::unique_ptr<kernels::KernelMatrix> km;

  GridProblem(const std::string& kname, la::index_t n, la::index_t leaf) {
    geom::Domain domain = geom::grid2d(n);
    geom::ClusterTree tree(domain, leaf);
    kernel = kernels::make_kernel(kname);
    km = std::make_unique<kernels::KernelMatrix>(*kernel, tree.points());
  }
};

double rel_diff(const std::vector<double>& ref, const std::vector<double>& got) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += (ref[i] - got[i]) * (ref[i] - got[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

}  // namespace

AccuracyOutcome hss_accuracy(const AccuracySetup& setup) {
  GridProblem p(setup.kernel, setup.n, setup.leaf_size);
  fmt::KernelAccessor acc(*p.km);

  AccuracyOutcome out;
  WallTimer timer;
  const fmt::HSSOptions opts{.leaf_size = setup.leaf_size,
                             .max_rank = setup.max_rank,
                             .tol = setup.tol,
                             .sample_cols = setup.sample_cols,
                             .seed = setup.seed,
                             .guard_tol = setup.guard_tol};
  fmt::HSSMatrix h = fmt::build_hss(acc, opts, setup.workers);
  out.build_seconds = timer.seconds();
  out.rank_used = h.max_rank_used();
  out.compressed_bytes = h.memory_bytes();

  Rng rng(setup.seed + 1);
  std::vector<double> b = rng.normal_vector(setup.n);

  // Construction error (Eq. 18): dense matvec streamed, compressed matvec.
  std::vector<double> ab_dense, ab_hss;
  p.km->matvec(b, ab_dense);
  h.matvec(b, ab_hss);
  out.construct_error = rel_diff(ab_dense, ab_hss);

  timer.reset();
  auto f = ulv::HSSULV::factorize(h);
  out.factor_seconds = timer.seconds();

  // Solve error (Eq. 19) on the compressed operator.
  timer.reset();
  std::vector<double> x = f.solve(ab_hss);
  out.solve_seconds = timer.seconds();
  out.solve_error = rel_diff(b, x);
  return out;
}

AccuracyOutcome blr_accuracy(const AccuracySetup& setup) {
  GridProblem p(setup.kernel, setup.n, setup.leaf_size);
  fmt::KernelAccessor acc(*p.km);

  AccuracyOutcome out;
  WallTimer timer;
  fmt::BLRMatrix m = fmt::build_blr(acc, {.tile_size = setup.leaf_size,
                                          .max_rank = setup.max_rank,
                                          .tol = setup.tol});
  out.build_seconds = timer.seconds();
  out.rank_used = m.max_rank_used();
  out.compressed_bytes = m.memory_bytes();

  Rng rng(setup.seed + 1);
  std::vector<double> b = rng.normal_vector(setup.n);

  std::vector<double> ab_dense, ab_blr;
  p.km->matvec(b, ab_dense);
  m.matvec(b, ab_blr);
  out.construct_error = rel_diff(ab_dense, ab_blr);

  timer.reset();
  auto f = blrchol::BLRCholesky::factorize(
      m, {.max_rank = setup.max_rank, .tol = setup.tol > 0 ? setup.tol * 1e-2 : 1e-12});
  out.factor_seconds = timer.seconds();

  timer.reset();
  std::vector<double> x = f.solve(ab_blr);
  out.solve_seconds = timer.seconds();
  out.solve_error = rel_diff(b, x);
  return out;
}

}  // namespace hatrix::driver
