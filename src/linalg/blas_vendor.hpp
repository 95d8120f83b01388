#pragma once
/// \file blas_vendor.hpp
/// \brief Internal declarations for the optional vendor-BLAS backend.
///
/// Implemented in blas_vendor.cpp, whose body is compiled only when the
/// build sets HATRIX_WITH_BLAS (CMake option of the same name, linking an
/// external Fortran-ABI BLAS such as OpenBLAS). Without it these functions
/// are never referenced: the dispatcher in blas.cpp guards every call behind
/// the same preprocessor flag, and set_backend(Backend::Vendor) throws.
///
/// The wrappers adapt semantics, not just names: syrk mirrors the vendor's
/// lower triangle into the upper one to honor la::syrk's full-symmetric
/// contract. No bit-identity promise is made for this backend.

#include "linalg/blas.hpp"

#if defined(HATRIX_WITH_BLAS)

namespace hatrix::la::vendor {

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c);
void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c);
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

}  // namespace hatrix::la::vendor

#endif  // HATRIX_WITH_BLAS
