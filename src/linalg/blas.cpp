/// \file blas.cpp
/// \brief Public kernel entry points: shape checks, flop accounting, backend
/// dispatch. The arithmetic lives in blas_detail.hpp (naive + blocked) and
/// blas_vendor.cpp (optional external BLAS).

#include "linalg/blas.hpp"

#include <cstdlib>

#include "common/flops.hpp"
#include "linalg/blas_detail.hpp"
#include "linalg/blas_vendor.hpp"

namespace hatrix::la {

namespace {

Backend initial_backend() {
  if (const char* env = std::getenv("HATRIX_LA_BACKEND")) {
    const Backend b = backend_from_name(env);
    if (b == Backend::Vendor && !vendor_available())
      throw Error("HATRIX_LA_BACKEND=vendor but built without HATRIX_WITH_BLAS");
    return b;
  }
  return Backend::Blocked;
}

std::atomic<Backend>& backend_state() {
  static std::atomic<Backend> state{initial_backend()};
  return state;
}

}  // namespace

Backend backend() noexcept { return backend_state().load(std::memory_order_relaxed); }

void set_backend(Backend b) {
  if (b == Backend::Vendor && !vendor_available())
    throw Error("vendor BLAS backend requested but built without HATRIX_WITH_BLAS");
  backend_state().store(b, std::memory_order_relaxed);
}

bool vendor_available() noexcept {
#if defined(HATRIX_WITH_BLAS)
  return true;
#else
  return false;
#endif
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::Naive:
      return "naive";
    case Backend::Blocked:
      return "blocked";
    case Backend::Vendor:
      return "vendor";
  }
  return "unknown";
}

Backend backend_from_name(const std::string& name) {
  if (name == "naive") return Backend::Naive;
  if (name == "blocked") return Backend::Blocked;
  if (name == "vendor") return Backend::Vendor;
  throw Error("unknown linalg backend '" + name +
              "' (expected naive | blocked | vendor)");
}

namespace {

template <class T>
void check_gemm(ConstMatrixViewT<T> a, Trans ta, ConstMatrixViewT<T> b, Trans tb,
                MatrixViewT<T> c) {
  HATRIX_CHECK(detail::op_rows(b, tb) == detail::op_cols(a, ta),
               "gemm inner dimension mismatch");
  HATRIX_CHECK(c.rows == detail::op_rows(a, ta) && c.cols == detail::op_cols(b, tb),
               "gemm output shape mismatch");
}

template <class T>
void check_syrk(ConstMatrixViewT<T> a, Trans trans, MatrixViewT<T> c) {
  HATRIX_CHECK(c.rows == detail::op_rows(a, trans) && c.cols == c.rows,
               "syrk output shape mismatch");
}

template <class T>
void check_tr(Side side, ConstMatrixViewT<T> t, MatrixViewT<T> b, const char* who) {
  HATRIX_CHECK(t.rows == t.cols, std::string(who) + " triangular matrix must be square");
  if (side == Side::Left) {
    HATRIX_CHECK(b.rows == t.rows, std::string(who) + " dimension mismatch");
  } else {
    HATRIX_CHECK(b.cols == t.rows, std::string(who) + " dimension mismatch");
  }
}

template <class T>
void gemm_dispatch(T alpha, ConstMatrixViewT<T> a, Trans ta, ConstMatrixViewT<T> b,
                   Trans tb, T beta, MatrixViewT<T> c) {
  switch (backend()) {
    case Backend::Naive:
      detail::gemm_naive<T>(alpha, a, ta, b, tb, beta, c);
      return;
    case Backend::Vendor:
#if defined(HATRIX_WITH_BLAS)
      vendor::gemm(alpha, a, ta, b, tb, beta, c);
      return;
#else
      [[fallthrough]];
#endif
    case Backend::Blocked:
      detail::gemm_blocked<T>(alpha, a, ta, b, tb, beta, c);
      return;
  }
}

template <class T>
void syrk_dispatch(T alpha, ConstMatrixViewT<T> a, Trans trans, T beta,
                   MatrixViewT<T> c) {
  switch (backend()) {
    case Backend::Naive:
      detail::syrk_naive<T>(alpha, a, trans, beta, c);
      return;
    case Backend::Vendor:
#if defined(HATRIX_WITH_BLAS)
      vendor::syrk(alpha, a, trans, beta, c);
      return;
#else
      [[fallthrough]];
#endif
    case Backend::Blocked:
      detail::syrk_blocked<T>(alpha, a, trans, beta, c);
      return;
  }
}

template <class T>
void trsm_dispatch(Side side, UpLo uplo, Trans trans, Diag diag, T alpha,
                   ConstMatrixViewT<T> t, MatrixViewT<T> b) {
  switch (backend()) {
    case Backend::Naive:
      detail::trsm_naive<T>(side, uplo, trans, diag, alpha, t, b);
      return;
    case Backend::Vendor:
#if defined(HATRIX_WITH_BLAS)
      vendor::trsm(side, uplo, trans, diag, alpha, t, b);
      return;
#else
      [[fallthrough]];
#endif
    case Backend::Blocked:
      detail::trsm_blocked<T>(side, uplo, trans, diag, alpha, t, b);
      return;
  }
}

// Flop accounting happens here, at the public entry points, and only when
// the call performs arithmetic: no-op calls (alpha == 0 or an empty
// dimension) previously inflated the counters the benches and the distsim
// cost model consume.
template <class T>
void gemm_entry(T alpha, ConstMatrixViewT<T> a, Trans ta, ConstMatrixViewT<T> b,
                Trans tb, T beta, MatrixViewT<T> c) {
  check_gemm(a, ta, b, tb, c);
  const index_t m = c.rows, n = c.cols, k = detail::op_cols(a, ta);
  if (alpha != T(0) && m != 0 && n != 0 && k != 0)
    flops::add(static_cast<std::uint64_t>(2) * m * n * k);
  if (n == 1 && tb == Trans::No) {
    // One-column calls (single-RHS solves) get views with a literal column
    // count, so the compiler specializes the kernel as it does for gemv.
    // Same arithmetic, same per-column order: results are bit-identical.
    gemm_dispatch<T>(alpha, a, ta, ConstMatrixViewT<T>{b.data, b.rows, 1, b.ld},
                     Trans::No, beta, MatrixViewT<T>{c.data, c.rows, 1, c.ld});
    return;
  }
  gemm_dispatch<T>(alpha, a, ta, b, tb, beta, c);
}

template <class T>
void syrk_entry(T alpha, ConstMatrixViewT<T> a, Trans trans, T beta,
                MatrixViewT<T> c) {
  check_syrk(a, trans, c);
  const index_t n = c.rows, k = detail::op_cols(a, trans);
  if (alpha != T(0) && n != 0 && k != 0)
    flops::add(static_cast<std::uint64_t>(n) * n * k);  // symmetric half counted
  syrk_dispatch<T>(alpha, a, trans, beta, c);
}

template <class T>
void trsm_entry(Side side, UpLo uplo, Trans trans, Diag diag, T alpha,
                ConstMatrixViewT<T> t, MatrixViewT<T> b) {
  check_tr(side, t, b, "trsm");
  const index_t n = t.rows;
  const index_t rhs = side == Side::Left ? b.cols : b.rows;
  if (alpha != T(0) && n != 0 && rhs != 0)
    flops::add(static_cast<std::uint64_t>(n) * n * rhs);
  trsm_dispatch<T>(side, uplo, trans, diag, alpha, t, b);
}

}  // namespace

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c) {
  gemm_entry<double>(alpha, a, ta, b, tb, beta, c);
}

Matrix matmul(ConstMatrixView a, ConstMatrixView b, Trans ta, Trans tb) {
  Matrix c(detail::op_rows(a, ta), detail::op_cols(b, tb));
  gemm(1.0, a, ta, b, tb, 0.0, c.view());
  return c;
}

void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c) {
  syrk_entry<double>(alpha, a, trans, beta, c);
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  trsm_entry<double>(side, uplo, trans, diag, alpha, t, b);
}

void gemv(double alpha, ConstMatrixView a, Trans ta, const double* x, double beta,
          double* y) {
  // One-column gemm so vector and panel calls stay bit-identical per column
  // (the solve layer's determinism contract).
  const index_t m = detail::op_rows(a, ta), n = detail::op_cols(a, ta);
  const ConstMatrixView xv{x, n, 1, n > 0 ? n : 1};
  const MatrixView yv{y, m, 1, m > 0 ? m : 1};
  gemm(alpha, a, ta, xv, Trans::No, beta, yv);
}

void add_scaled(MatrixView y, double alpha, ConstMatrixView x) {
  HATRIX_CHECK(y.rows == x.rows && y.cols == x.cols, "add_scaled shape mismatch");
  flops::add(static_cast<std::uint64_t>(2) * y.rows * y.cols);
  for (index_t j = 0; j < y.cols; ++j)
    for (index_t i = 0; i < y.rows; ++i) y(i, j) += alpha * x(i, j);
}

void scale(MatrixView a, double alpha) { detail::scale_impl<double>(a, alpha); }

double dot(ConstMatrixView a, ConstMatrixView b) {
  HATRIX_CHECK(a.rows == b.rows && a.cols == b.cols, "dot shape mismatch");
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) s += a(i, j) * b(i, j);
  return s;
}

// --- Internal no-count dispatchers (composite kernels count at the top). ---

namespace detail {

void gemm_nc(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
             Trans tb, double beta, MatrixView c) {
  gemm_dispatch<double>(alpha, a, ta, b, tb, beta, c);
}
void syrk_nc(double alpha, ConstMatrixView a, Trans trans, double beta,
             MatrixView c) {
  syrk_dispatch<double>(alpha, a, trans, beta, c);
}
void trsm_nc(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
             ConstMatrixView t, MatrixView b) {
  trsm_dispatch<double>(side, uplo, trans, diag, alpha, t, b);
}

}  // namespace detail

// --- The retained naive reference (conformance oracle). ---

namespace ref {

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c) {
  check_gemm(a, ta, b, tb, c);
  detail::gemm_naive<double>(alpha, a, ta, b, tb, beta, c);
}
void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c) {
  check_syrk(a, trans, c);
  detail::syrk_naive<double>(alpha, a, trans, beta, c);
}
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  check_tr(side, t, b, "trsm");
  detail::trsm_naive<double>(side, uplo, trans, diag, alpha, t, b);
}
void potrf(MatrixView a) {
  HATRIX_CHECK(a.rows == a.cols, "potrf requires a square matrix");
  detail::potrf_unblocked<double>(a);
  for (index_t j = 1; j < a.cols; ++j)
    for (index_t i = 0; i < j; ++i) a(i, j) = 0.0;
}

}  // namespace ref

}  // namespace hatrix::la
