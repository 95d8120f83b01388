#pragma once
/// \file blr_cholesky.hpp
/// \brief BLR tile Cholesky — the LORAPO baseline (Cao et al., IPDPS 2022).
///
/// Right-looking tile Cholesky on the flat BLR format: dense POTRF on
/// diagonal tiles, low-rank-aware TRSM on the panel, and Schur updates that
/// recompress via rounded addition to keep per-tile ranks adaptive. The
/// trailing-submatrix updates are exactly the dependency pattern that makes
/// LORAPO's critical path heavy (Sec. 4.3) and its complexity O(N^2)
/// (Table 1).

#include <string>
#include <vector>

#include "common/error.hpp"
#include "format/blr.hpp"

namespace hatrix::blrchol {

using fmt::BLRMatrix;
using la::index_t;
using la::Matrix;

/// Rank-control parameters for the Schur-complement recompression.
struct BLRCholOptions {
  index_t max_rank = 1024;  ///< cap on any tile rank during updates
  double tol = 1e-10;       ///< rounded-addition truncation tolerance
};

/// A diagonal tile of a tile Cholesky (BLR or dense) is not positive
/// definite at its POTRF step: the operator is not SPD. Names the tile.
class TilePivotError : public Error {
 public:
  TilePivotError(index_t tile, const std::string& detail);
  [[nodiscard]] index_t tile() const { return tile_; }

 private:
  index_t tile_;
};

/// In-place la::potrf of diagonal tile `k`; a failed pivot is rethrown as
/// TilePivotError.
void factor_diag_tile(la::MatrixView a, index_t k);

/// Factored form: L in BLR representation (diag tiles dense lower-
/// triangular, off-diagonal tiles low-rank).
class BLRCholesky {
 public:
  /// Factorize in a copy of `a`: the emit_blr_cholesky_dag task graph run
  /// on one worker. Throws TilePivotError naming the first diagonal tile
  /// that loses positive definiteness.
  static BLRCholesky factorize(const BLRMatrix& a, const BLRCholOptions& opts = {});

  /// Wrap an already-factorized BLR matrix (the task-based path: run the
  /// DAG from emit_blr_cholesky_dag, then adopt its state).
  static BLRCholesky adopt(BLRMatrix factored) {
    BLRCholesky out;
    out.l_ = std::move(factored);
    return out;
  }

  /// Solve A x = b via forward/backward substitution on the BLR factor.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Largest tile rank in the factor (rank growth diagnostic).
  [[nodiscard]] index_t max_rank_used() const { return l_.max_rank_used(); }

  [[nodiscard]] std::int64_t memory_bytes() const { return l_.memory_bytes(); }

  [[nodiscard]] const BLRMatrix& factor() const { return l_; }

 private:
  BLRMatrix l_;
};

}  // namespace hatrix::blrchol
