#include "linalg/cholesky.hpp"

#include <algorithm>

#include "common/flops.hpp"
#include "linalg/blas_detail.hpp"

namespace hatrix::la {

namespace {

constexpr index_t kBlock = 64;

// Right-looking blocked algorithm: factor the diagonal block, solve the
// panel below it, update the trailing lower triangle. Panel work calls the
// blocked kernels directly, not the counting entry points, so the n³/3
// recorded in potrf is the whole story.
void potrf_blocked(MatrixView a) {
  const index_t n = a.rows;
  for (index_t k = 0; k < n; k += kBlock) {
    const index_t nb = std::min(kBlock, n - k);
    detail::potrf_unblocked(a.block(k, k, nb, nb));
    const index_t rest = n - k - nb;
    if (rest == 0) continue;
    MatrixView panel = a.block(k + nb, k, rest, nb);
    detail::trsm_blocked(Side::Right, UpLo::Lower, Trans::Yes, Diag::NonUnit,
                         1.0, a.block(k, k, nb, nb), panel);
    // Trailing update only needs the lower triangle, but syrk writes both;
    // that is harmless because potrf never reads the strict upper triangle.
    detail::syrk_blocked(-1.0, panel, Trans::No, 1.0,
                         a.block(k + nb, k + nb, rest, rest));
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
