#pragma once
/// \file hss_ulv.hpp
/// \brief HSS-ULV factorization and solve (Alg. 2, Eq. 16-17).
///
/// The O(N) direct factorization at the heart of the paper: per level, every
/// node's diagonal is rotated by its shared basis and partially factorized
/// independently (embarrassingly parallel within a level); the merge step
/// stitches the two children's skeleton Schur complements and their sibling
/// coupling into the parent's dense diagonal. The root block gets a plain
/// dense Cholesky. The solve runs the steps of hss_solve_tasks.hpp, the same
/// functions the solve DAG's tasks call, in the DAG's insertion order.

#include <vector>

#include "format/hss.hpp"
#include "ulv/ulv_common.hpp"

namespace hatrix::ulv {

/// The factored form of an SPD HSS matrix. Holds per-node partial factors
/// plus the root Cholesky factor; solves run in O(N·rank).
///
/// Thread safety: a factorization is immutable once built. Every solve
/// entry point is const, keeps all per-solve workspace (the HSSSolveState
/// of rotated RHS and skeleton panels) local to the call, and only reads the
/// factor data — so any number of threads may call solve()/solve_refined()
/// concurrently on one shared HSSULV with no synchronization and
/// bit-identical results (test_concurrent_solve asserts this under TSan).
class HSSULV {
 public:
  HSSULV() = default;

  /// Assemble a factorization from the pieces an executed
  /// emit_hss_ulv_dag graph computed (extract_factorization).
  /// `factors[level][node]`; `root_l` is the Cholesky factor of A_0.
  HSSULV(const fmt::HSSMatrix& a, std::vector<std::vector<NodeFactor>> factors,
         Matrix root_l)
      : a_(&a), factors_(std::move(factors)), root_l_(std::move(root_l)) {}

  /// Factorize a symmetric positive definite HSS matrix: the
  /// emit_hss_ulv_dag task graph run on one worker, with working blocks
  /// freed at their last use. Throws PivotError naming the node whose pivot
  /// block fails (matrix not SPD on the compressed representation).
  static HSSULV factorize(const fmt::HSSMatrix& a);

  /// Solve A x = b; returns x. `b.size()` must equal `a.size()`. Runs the
  /// panel solve on one-column views of `b` and x (no copies).
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A X = B for a whole panel of right-hand sides: the
  /// level-by-level rotations and triangular solves are applied to the
  /// entire panel via gemm/trsm, so each node's factor blocks are streamed
  /// through the cache once per panel instead of once per column. Column j
  /// of the result is bit-identical to solve(column j) and to
  /// solve_columnwise(b) — the per-column operation order is unchanged,
  /// only the blocking is.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Test oracle: one single-RHS solve per column of B. Kept only so tests
  /// and bench_solve_throughput can assert the blocked path is
  /// bit-identical and measure its speedup; new code should call
  /// solve(const Matrix&).
  [[nodiscard]] Matrix solve_columnwise(const Matrix& b) const;

  /// Solve with iterative refinement: after the direct ULV solve, perform
  /// `iterations` residual-correction steps r = b - A x (A applied through
  /// the compressed matvec), x += A^{-1} r. Cheap (O(N·rank) per step) and
  /// recovers digits lost to compression roundoff. When `residual_history`
  /// is non-null it receives iterations + 1 relative residual norms
  /// ||b - A x|| / ||b||: one before each correction step and one after the
  /// last (costs one extra compressed matvec).
  [[nodiscard]] std::vector<double> solve_refined(
      const std::vector<double>& b, int iterations = 1,
      std::vector<double>* residual_history = nullptr) const;

  /// Total bytes held by the factors (complements + triangles + root).
  [[nodiscard]] std::int64_t memory_bytes() const;

  /// The matrix this factorization refers to (not owned).
  [[nodiscard]] const fmt::HSSMatrix& matrix() const { return *a_; }

  /// Per-node factor access (used by the solve steps).
  [[nodiscard]] const NodeFactor& factor(int level, index_t i) const {
    return factors_[static_cast<std::size_t>(level)][static_cast<std::size_t>(i)];
  }
  /// Cholesky factor of the root block A_0.
  [[nodiscard]] const Matrix& root_factor() const { return root_l_; }

 private:
  /// The panel solve behind both solve() overloads: X = A^{-1} B, with
  /// `b` and `x` both n x nrhs. Calls the solve steps in insertion order.
  void solve_into(la::ConstMatrixView b, la::MatrixView x) const;

  const fmt::HSSMatrix* a_ = nullptr;
  std::vector<std::vector<NodeFactor>> factors_;  // [level][node]
  Matrix root_l_;                                 // dense Cholesky of A_0
};

/// Convenience: relative solve error of Eq. (19),
/// || b - A^{-1} (A b) || / || b ||, using the compressed matvec for A·b.
double ulv_solve_error(const fmt::HSSMatrix& a, const HSSULV& f,
                       const std::vector<double>& b);

}  // namespace hatrix::ulv
