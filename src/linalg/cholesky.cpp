/// \file cholesky.cpp
/// \brief Blocked lower Cholesky (la::potrf) and the SPD solves built on it.
///
/// potrf is left-looking over 64-wide block columns: one gemm brings a block
/// column up to date, then detail::potrf_panel factors it down its
/// contiguous columns, so the gemm carries all but the panels' flops. This
/// is a kernel TU: CMake compiles it with the kernel flags.

#include "linalg/cholesky.hpp"

#include <algorithm>

#include "common/flops.hpp"
#include "linalg/blas_detail.hpp"

namespace hatrix::la {

namespace {

// Left-looking blocked algorithm: bring block column k up to date with one
// gemm against the factored columns to its left, then factor it as a panel
// (its diagonal block and every row below it, detail::potrf_panel). Panel
// work calls the blocked kernels directly, not the counting entry points,
// so the n³/3 recorded in potrf is the whole story.
void potrf_blocked(MatrixView a) {
  const index_t n = a.rows;
  for (index_t k = 0; k < n; k += detail::kBlock) {
    const index_t nb = std::min(detail::kBlock, n - k);
    const MatrixView column = a.block(k, k, n - k, nb);
    // The gemm also writes the strict upper part of the diagonal block,
    // which nothing reads before it is zeroed below.
    if (k > 0)
      detail::gemm_blocked(-1.0, a.block(k, 0, n - k, k), Trans::No,
                           a.block(k, 0, nb, k), Trans::Yes, 1.0, column);
    detail::potrf_panel(column);
  }

  // Zero the strict upper triangle so the output is exactly L as a full
  // matrix (callers reconstruct L·Lᵀ with general matmuls).
  for (index_t j = 1; j < n; ++j)
    for (index_t i = 0; i < j; ++i) a(i, j) = 0.0;
}

}  // namespace

void potrf(MatrixView a) {
  HATRIX_CHECK(a.rows == a.cols, "potrf requires a square matrix");
  const index_t n = a.rows;
  flops::add(static_cast<std::uint64_t>(n) * n * n / 3);
  potrf_blocked(a);
}

void potrs(ConstMatrixView l, MatrixView b) {
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, l, b);
  trsm(Side::Left, UpLo::Lower, Trans::Yes, Diag::NonUnit, 1.0, l, b);
}

Matrix solve_spd(ConstMatrixView a, ConstMatrixView b) {
  Matrix l = Matrix::from_view(a);
  potrf(l.view());
  Matrix x = Matrix::from_view(b);
  potrs(l.view(), x.view());
  return x;
}

}  // namespace hatrix::la
