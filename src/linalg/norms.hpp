#pragma once
/// \file norms.hpp
/// \brief Matrix and vector norms.

#include <vector>

#include "linalg/matrix.hpp"

namespace hatrix::la {

/// Frobenius norm.
double norm_fro(ConstMatrixView a);

/// Largest absolute entry.
double norm_max(ConstMatrixView a);

/// Euclidean norm of a vector.
double norm2(const std::vector<double>& x);

/// Relative Frobenius distance ||A - B||_F / ||A||_F (0 if both empty).
double rel_error(ConstMatrixView a, ConstMatrixView b);

}  // namespace hatrix::la
