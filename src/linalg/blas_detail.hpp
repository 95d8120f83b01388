#pragma once
/// \file blas_detail.hpp
/// \brief The blocked FP64 kernels behind la::gemm/syrk/trsm/potrf, for the
/// composite kernels (blocked potrf in cholesky.cpp, the QR family in
/// qr.cpp).
///
/// These are the kernels the public entry points call, minus the shape
/// checks and the flop counting: a composite kernel counts its classical
/// flops once at its own entry point and calls these for its panel updates,
/// so internal work is not counted twice. Defined in blas.cpp, which also
/// documents the per-column determinism invariant they keep.

#include "linalg/blas.hpp"

namespace hatrix::la::detail {

/// Width of the diagonal blocks of the blocked trsm, syrk and potrf: big
/// enough that the gemm updates between blocks carry the flops, small enough
/// that a block's column loops stay in cache.
inline constexpr index_t kBlock = 64;

/// C = alpha * op(A) * op(B) + beta * C.
void gemm_blocked(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                  Trans tb, double beta, MatrixView c);

/// C = alpha * op(A) * op(A)ᵀ + beta * C; both triangles of C are written.
void syrk_blocked(double alpha, ConstMatrixView a, Trans trans, double beta,
                  MatrixView c);

/// B = alpha * op(T)⁻¹ B (Side::Left) or alpha * B op(T)⁻¹ (Side::Right).
void trsm_blocked(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
                  ConstMatrixView t, MatrixView b);

/// Left-looking lower Cholesky of an m x n panel (m >= n), a column at a
/// time: factors the top n x n block in place and solves the m - n rows
/// below against it (A21 L11⁻ᵀ). Column j subtracts the factored columns to
/// its left with axpys down its contiguous segment, then divides by its
/// pivot. Throws on a non-positive pivot; never reads or writes the strict
/// upper triangle of the top block.
void potrf_panel(MatrixView a);

}  // namespace hatrix::la::detail
