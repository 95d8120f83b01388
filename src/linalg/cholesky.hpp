#pragma once
/// \file cholesky.hpp
/// \brief Cholesky factorization and SPD solves.

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace hatrix::la {

/// In-place lower Cholesky A = L·Lᵀ. Only the lower triangle of `a` is
/// referenced; on return the matrix holds exactly L (the strict upper
/// triangle is zeroed). Throws hatrix::Error if a non-positive pivot is met,
/// i.e. the matrix is not positive definite. Blocked right-looking algorithm
/// on top of the blocked trsm/syrk/gemm kernels.
void potrf(MatrixView a);

/// Solve A·X = B given the lower Cholesky factor L from potrf (B is
/// overwritten with the solution).
void potrs(ConstMatrixView l, MatrixView b);

/// Convenience: solve SPD system A·X = B without destroying A; returns X.
Matrix solve_spd(ConstMatrixView a, ConstMatrixView b);

}  // namespace hatrix::la
