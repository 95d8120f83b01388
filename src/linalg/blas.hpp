#pragma once
/// \file blas.hpp
/// \brief BLAS-style dense kernels (levels 1-3) on matrix views, behind a
/// runtime-selectable backend.
///
/// Three interchangeable backends implement the level-3 kernels
/// (gemm/syrk/trsm and the blocked potrf built on them; FP64 only — the
/// mixed-precision mode stores in FP32 but computes in FP64):
///
///   - `Backend::Blocked` (default): cache-blocked, packing gemm with
///     register-tiled micro-kernels; trsm/syrk/potrf are recast as small
///     diagonal-block solves plus gemm panel updates, so one tuned kernel
///     speeds every level-3 operation.
///   - `Backend::Naive`: the original reference triple loops, retained as
///     the conformance oracle (also reachable directly via `la::ref::`).
///   - `Backend::Vendor`: an external BLAS (compiled in with
///     -DHATRIX_WITH_BLAS=ON; `vendor_available()` reports it).
///
/// Select with `set_backend()` or the HATRIX_LA_BACKEND environment
/// variable (`naive` | `blocked` | `vendor`, read once at startup).
///
/// Determinism contract (the solve layer depends on it): for the Naive and
/// Blocked backends, column j of a gemm or Side::Left trsm result is
/// bit-identical whether the call covers one column or a whole panel —
/// per-column accumulation order never depends on the panel width. `gemv`
/// is routed through gemm with one column for the same reason. Vendor
/// backends make no such promise.
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

/// Kernel implementation selector (see file comment).
enum class Backend { Naive, Blocked, Vendor };

/// The currently active backend (process-wide, atomic).
[[nodiscard]] Backend backend() noexcept;
/// Select the backend for subsequent kernel calls. Throws hatrix::Error if
/// `Backend::Vendor` is requested but the library was built without
/// HATRIX_WITH_BLAS.
void set_backend(Backend b);
/// True when a vendor BLAS was compiled in.
[[nodiscard]] bool vendor_available() noexcept;
/// Human-readable backend name ("naive" / "blocked" / "vendor").
[[nodiscard]] const char* backend_name(Backend b) noexcept;
/// Parse a backend name (as accepted by HATRIX_LA_BACKEND); throws on an
/// unknown name.
[[nodiscard]] Backend backend_from_name(const std::string& name);

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

/// The retained naive reference kernels — the conformance oracle the other
/// backends are tested against (tests/test_linalg_conformance). Shapes are
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
