/// \file blas_vendor.cpp
/// \brief Vendor-BLAS backend: thin adapters over the Fortran BLAS ABI.
///
/// Compiled to an empty TU unless HATRIX_WITH_BLAS is defined (the layer
/// library globs every .cpp, so the gate lives here rather than in CMake
/// source lists). Only level-3 kernels are delegated — potrf stays the
/// blocked algorithm on top of the dispatched trsm/syrk/gemm, so no LAPACK
/// is required.

#if defined(HATRIX_WITH_BLAS)

#include "linalg/blas_vendor.hpp"

extern "C" {
void dgemm_(const char* transa, const char* transb, const int* m, const int* n,
            const int* k, const double* alpha, const double* a, const int* lda,
            const double* b, const int* ldb, const double* beta, double* c,
            const int* ldc);
void dsyrk_(const char* uplo, const char* trans, const int* n, const int* k,
            const double* alpha, const double* a, const int* lda,
            const double* beta, double* c, const int* ldc);
void dtrsm_(const char* side, const char* uplo, const char* transa,
            const char* diag, const int* m, const int* n, const double* alpha,
            const double* a, const int* lda, double* b, const int* ldb);
}

namespace hatrix::la::vendor {

namespace {

int as_int(index_t v) { return static_cast<int>(v); }
char trans_char(Trans t) { return t == Trans::No ? 'N' : 'T'; }

}  // namespace

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c) {
  const int m = as_int(c.rows), n = as_int(c.cols);
  const int k = as_int(ta == Trans::No ? a.cols : a.rows);
  const int lda = as_int(a.ld), ldb = as_int(b.ld), ldc = as_int(c.ld);
  const char tca = trans_char(ta), tcb = trans_char(tb);
  dgemm_(&tca, &tcb, &m, &n, &k, &alpha, a.data, &lda, b.data, &ldb, &beta,
         c.data, &ldc);
}

void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c) {
  const int n = as_int(c.rows);
  const int k = as_int(trans == Trans::No ? a.cols : a.rows);
  const int lda = as_int(a.ld), ldc = as_int(c.ld);
  const char ul = 'L', tc = trans_char(trans);
  dsyrk_(&ul, &tc, &n, &k, &alpha, a.data, &lda, &beta, c.data, &ldc);
  // la::syrk writes both triangles; the vendor routine only the lower one.
  for (index_t j = 0; j < c.cols; ++j)
    for (index_t i = j + 1; i < c.rows; ++i) c(j, i) = c(i, j);
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  const int m = as_int(b.rows), n = as_int(b.cols);
  const int lda = as_int(t.ld), ldb = as_int(b.ld);
  const char sc = side == Side::Left ? 'L' : 'R';
  const char ul = uplo == UpLo::Lower ? 'L' : 'U';
  const char tc = trans_char(trans);
  const char dc = diag == Diag::Unit ? 'U' : 'N';
  dtrsm_(&sc, &ul, &tc, &dc, &m, &n, &alpha, t.data, &lda, b.data, &ldb);
}

}  // namespace hatrix::la::vendor

#endif  // HATRIX_WITH_BLAS
