#pragma once
/// \file blr2_ulv.hpp
/// \brief BLR²-ULV factorization with weak admissibility (Alg. 1, Eq. 14-15).
///
/// Single-level variant of the ULV: every block's diagonal is rotated and
/// partially factorized, then the merge step permutes all skeleton blocks
/// into one dense matrix of size (Σ rank) which gets a plain Cholesky
/// (Fig. 4). This is the per-level building block of the HSS-ULV; it is also
/// where the O(N^2) cost of stopping at one level shows (Sec. 3.1),
/// motivating the multi-level HSS-ULV.

#include <vector>

#include "format/blr2.hpp"
#include "ulv/ulv_common.hpp"

namespace hatrix::ulv {

/// Factored form of an SPD BLR² matrix.
///
/// Immutable once factorized: all solve entry points are const and keep
/// their workspace on the caller's stack frame, so threads may share one
/// factorization and solve concurrently (same contract as HSSULV).
class BLR2ULV {
 public:
  BLR2ULV() = default;

  /// Assemble from the pieces an executed emit_blr2_ulv_dag graph computed
  /// (extract_blr2_factorization).
  BLR2ULV(const fmt::BLR2Matrix& a, std::vector<NodeFactor> factors,
          Matrix merged_l);

  /// Factorize: the emit_blr2_ulv_dag task graph run on one worker. Throws
  /// PivotError naming the failing block (level 1, block i) or the merged
  /// block (0, 0) if the matrix is not positive definite.
  static BLR2ULV factorize(const fmt::BLR2Matrix& a);

  /// Solve A x = b (Eq. 15): the panel solve on one-column views of `b`
  /// and x.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Blocked multi-RHS solve A X = B: per-block rotations and triangular
  /// solves applied to the whole RHS panel (gemm/trsm), merged skeleton
  /// solve on the full panel. Column j is bit-identical to solve(column j).
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  [[nodiscard]] std::int64_t memory_bytes() const;

 private:
  /// The panel solve behind both solve() overloads (`b`, `x`: n x nrhs).
  void solve_into(la::ConstMatrixView b, la::MatrixView x) const;

  const fmt::BLR2Matrix* a_ = nullptr;
  std::vector<NodeFactor> factors_;
  std::vector<index_t> skel_offset_;  ///< prefix sum of ranks into the merge
  Matrix merged_l_;                   ///< Cholesky factor of the merged block
};

}  // namespace hatrix::ulv
