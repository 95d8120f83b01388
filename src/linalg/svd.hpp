#pragma once
/// \file svd.hpp
/// \brief Singular value decomposition (one-sided Jacobi).
///
/// Used for truncation-quality low-rank recompression (rounded addition in
/// the BLR Cholesky) and as the reference decomposition in tests. Intended
/// for the small-to-medium blocks this library manipulates (up to a few
/// thousand rows/columns).

#include "linalg/matrix.hpp"

namespace hatrix::la {

/// Full (economy) SVD: A = U · diag(s) · Vᵀ with U (m x k), V (n x k),
/// k = min(m, n), singular values sorted descending.
struct SvdResult {
  Matrix u;
  std::vector<double> s;
  Matrix v;
};
SvdResult svd(ConstMatrixView a);

}  // namespace hatrix::la
