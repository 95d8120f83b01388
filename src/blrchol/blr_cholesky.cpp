#include "blrchol/blr_cholesky.hpp"

#include "blrchol/blr_cholesky_tasks.hpp"
#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "runtime/thread_pool_executor.hpp"

namespace hatrix::blrchol {

TilePivotError::TilePivotError(index_t tile, const std::string& detail)
    : Error("tile Cholesky pivot tile " + std::to_string(tile) +
            " is not positive definite: " + detail),
      tile_(tile) {}

void factor_diag_tile(la::MatrixView a, index_t k) {
  // la::potrf's only failure on a square tile is a non-positive pivot.
  HATRIX_CHECK(a.rows == a.cols, "factor_diag_tile: square tile required");
  try {
    la::potrf(a);
  } catch (const Error& e) {
    throw TilePivotError(k, e.what());
  }
}

BLRCholesky BLRCholesky::factorize(const BLRMatrix& a, const BLRCholOptions& opts) {
  // The sequential factorization is the tile DAG on one worker: the same
  // task bodies as every parallel run, on the DAG's copy of `a`.
  rt::TaskGraph graph;
  const BLRCholDag dag = emit_blr_cholesky_dag(a, graph, /*with_work=*/true, opts);
  rt::ThreadPoolExecutor(1).run(graph);
  return adopt(std::move(*dag.state));
}

std::vector<double> BLRCholesky::solve(const std::vector<double>& b) const {
  const index_t n = l_.size(), p = l_.num_tiles();
  HATRIX_CHECK(static_cast<index_t>(b.size()) == n, "solve: rhs length mismatch");
  std::vector<double> x = b;

  // Forward: L y = b.
  for (index_t i = 0; i < p; ++i) {
    for (index_t j = 0; j < i; ++j) {
      const auto& t = l_.tile(i, j);
      if (t.rank() > 0)
        t.matvec(-1.0, x.data() + l_.tile_begin(j), 1.0, x.data() + l_.tile_begin(i));
    }
    la::MatrixView xi{x.data() + l_.tile_begin(i), l_.tile_size(i), 1, n};
    la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::No, la::Diag::NonUnit, 1.0,
             l_.diag(i).view(), xi);
  }

  // Backward: Lᵀ x = y.
  for (index_t i = p - 1; i >= 0; --i) {
    for (index_t j = i + 1; j < p; ++j) {
      const auto& t = l_.tile(j, i);  // L_ji, used transposed
      if (t.rank() > 0)
        t.matvec_trans(-1.0, x.data() + l_.tile_begin(j), 1.0,
                       x.data() + l_.tile_begin(i));
    }
    la::MatrixView xi{x.data() + l_.tile_begin(i), l_.tile_size(i), 1, n};
    la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit, 1.0,
             l_.diag(i).view(), xi);
  }
  return x;
}

}  // namespace hatrix::blrchol
