#pragma once
/// \file lowrank.hpp
/// \brief Low-rank block representation A ≈ U·Vᵀ.
///
/// The unit of storage for admissible blocks in the BLR format (LORAPO
/// baseline) and the output type of every compressor.

#include "linalg/matrix.hpp"

namespace hatrix::lr {

using la::index_t;
using la::Matrix;

/// A low-rank factorization U (m x k) times Vᵀ (k x n).
struct LowRank {
  Matrix u;
  Matrix v;

  LowRank() = default;
  LowRank(Matrix u_, Matrix v_);

  [[nodiscard]] index_t rows() const { return u.rows(); }
  [[nodiscard]] index_t cols() const { return v.rows(); }
  [[nodiscard]] index_t rank() const { return u.cols(); }

  /// Storage footprint in bytes (used by communication models).
  [[nodiscard]] std::int64_t bytes() const { return u.bytes() + v.bytes(); }

  /// Materialize U·Vᵀ.
  [[nodiscard]] Matrix dense() const;

  /// y = alpha * (U Vᵀ) x + beta * y  in O((m+n)k).
  void matvec(double alpha, const double* x, double beta, double* y) const;

  /// y = alpha * (U Vᵀ)ᵀ x + beta * y.
  void matvec_trans(double alpha, const double* x, double beta, double* y) const;
};

/// Relative Frobenius error of the approximation against a dense reference.
double approx_error(const LowRank& lr, la::ConstMatrixView reference);

}  // namespace hatrix::lr
