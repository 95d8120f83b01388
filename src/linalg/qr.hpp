#pragma once
/// \file qr.hpp
/// \brief Householder QR and rank-revealing (column-pivoted, truncated) QR.
///
/// The pivoted variant is the workhorse of low-rank compression: shared HSS
/// bases are produced by truncating it at a maximum rank and/or tolerance
/// (Eq. (2) of the paper).

#include <vector>

#include "linalg/matrix.hpp"

namespace hatrix::la {

/// Economy QR of an m x n matrix (m >= n or m < n both supported):
/// A = Q·R with Q (m x k), R (k x n), k = min(m, n). Q has orthonormal
/// columns.
struct QrResult {
  Matrix q;
  Matrix r;
};
QrResult qr(ConstMatrixView a);

/// Truncated column-pivoted QR: A·P ≈ Q·R with Q (m x rank) orthonormal.
///
/// The factorization stops when `rank == max_rank` or when the largest
/// remaining column norm drops below `tol` (absolute) — whichever comes
/// first. `perm[j]` gives the original column index of permuted column j.
/// With `want_q == false` Q is not formed (left empty); callers that only
/// need R and the pivots, such as an interpolative decomposition, skip its
/// cost.
struct PivotedQrResult {
  Matrix q;                   ///< m x rank, orthonormal columns
  Matrix r;                   ///< rank x n, upper trapezoidal in permuted order
  std::vector<index_t> perm;  ///< column permutation applied to A
  index_t rank = 0;
};
PivotedQrResult pivoted_qr(ConstMatrixView a, index_t max_rank, double tol = 0.0,
                           bool want_q = true);

/// Orthonormal basis of the orthogonal complement of col(U) in R^m, where U
/// (m x k) has orthonormal columns: returns Q_c (m x (m-k)) with
/// [Q_c U] orthogonal. Used by the ULV factorization to form the
/// complement-first full basis U_F = [Uᴿ Uˢ] of Eq. (3).
Matrix orth_complement(ConstMatrixView u);

}  // namespace hatrix::la
