#pragma once
/// \file blas.hpp
/// \brief BLAS-style dense FP64 kernels (levels 1-3) on matrix views.
///
/// One implementation serves the level-3 kernels: a cache-blocked, packing
/// gemm with a register-tiled micro-kernel, with trsm/syrk/potrf recast as
/// small diagonal-block solves plus gemm panel updates, so one tuned kernel
/// speeds every level-3 operation. The naive triple loops are kept only as
/// the conformance oracle, `la::ref::`.
///
/// Determinism contract (the solve layer depends on it): column j of a gemm
/// or Side::Left trsm result is bit-identical whether the call covers one
/// column or a whole panel — per-column accumulation order never depends on
/// the panel width. `gemv` is routed through gemm with one column for the
/// same reason.
///
/// All kernels count their classical flop totals through hatrix::flops so
/// benches can measure algorithmic complexity (Table 1 of the paper). The
/// count is recorded only when work is actually performed (no-op calls with
/// alpha == 0 or an empty inner dimension add nothing), and composite
/// kernels (potrf, the QR family) count once at the top rather than
/// re-counting their internal panel updates.

#include "linalg/matrix.hpp"

namespace hatrix::la {

/// Transposition selector for gemm-family kernels.
enum class Trans { No, Yes };
/// Which triangle of a triangular/symmetric matrix is referenced.
enum class UpLo { Lower, Upper };
/// Whether the triangular matrix multiplies from the left or right.
enum class Side { Left, Right };
/// Whether the triangular matrix has an implicit unit diagonal.
enum class Diag { NonUnit, Unit };

/// Kernel implementation tag, reported in bench provenance rows. The
/// blocked kernels are the only implementation.
enum class Backend { Blocked };

/// The kernel implementation in use (always `Backend::Blocked`).
[[nodiscard]] Backend backend() noexcept;
/// Human-readable implementation name ("blocked").
[[nodiscard]] const char* backend_name(Backend b) noexcept;

/// C = alpha * op(A) * op(B) + beta * C.
void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c);

/// Convenience: returns op(A)*op(B) as a new matrix.
Matrix matmul(ConstMatrixView a, ConstMatrixView b, Trans ta = Trans::No,
              Trans tb = Trans::No);

/// C = alpha * A * Aᵀ + beta * C (trans==No) or alpha * Aᵀ * A + beta * C
/// (trans==Yes). Both triangles of C are written (full symmetric result).
void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c);

/// B = alpha * op(T)⁻¹ B (Side::Left) or alpha * B op(T)⁻¹ (Side::Right),
/// where T is triangular per `uplo`/`diag`.
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

/// y = alpha * op(A) * x + beta * y. Routed through gemm with a one-column
/// panel so vector and panel solves stay bit-identical per column.
void gemv(double alpha, ConstMatrixView a, Trans ta, const double* x, double beta,
          double* y);

/// Y += alpha * X (same shapes).
void add_scaled(MatrixView y, double alpha, ConstMatrixView x);

/// A *= alpha.
void scale(MatrixView a, double alpha);

/// Frobenius inner product <A, B>.
double dot(ConstMatrixView a, ConstMatrixView b);

/// The retained naive reference kernels — the conformance oracle the blocked
/// kernels are tested against (tests/test_linalg_conformance). Shapes are
/// checked, flops are NOT counted (the public entry points own accounting).
namespace ref {
void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c);
void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c);
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);
/// Unblocked lower Cholesky (the dpotf2-style reference; throws on a
/// non-positive pivot). Zeroes the strict upper triangle like la::potrf.
void potrf(MatrixView a);
}  // namespace ref

}  // namespace hatrix::la
