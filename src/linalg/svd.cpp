#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/flops.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace hatrix::la {

namespace {

// One-sided Jacobi on a tall matrix W (m x n, m >= n): rotates column pairs
// until all are mutually orthogonal. V accumulates the rotations.
void jacobi_sweeps(Matrix& w, Matrix& v) {
  const index_t m = w.rows(), n = w.cols();
  const double eps = 1e-15;
  const int max_sweeps = 60;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (index_t i = 0; i < m; ++i) {
          app += w(i, p) * w(i, p);
          aqq += w(i, q) * w(i, q);
          apq += w(i, p) * w(i, q);
        }
        flops::add(static_cast<std::uint64_t>(6) * m);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        converged = false;

        // Two-sided rotation of the 2x2 Gram block [app apq; apq aqq].
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (index_t i = 0; i < m; ++i) {
          const double wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (index_t i = 0; i < v.rows(); ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
        flops::add(static_cast<std::uint64_t>(6) * (m + v.rows()));
      }
    }
    if (converged) break;
  }
}

}  // namespace

SvdResult svd(ConstMatrixView a) {
  const bool wide = a.cols > a.rows;
  // Work on the tall orientation; swap U/V at the end if we transposed.
  Matrix w = wide ? transpose(a) : Matrix::from_view(a);
  const index_t m = w.rows(), n = w.cols();

  // A preliminary QR keeps the Jacobi iteration on an n x n problem when the
  // matrix is very tall (the common case when recompressing stacked blocks).
  Matrix q_pre;
  bool pre_qr = m > 2 * n && n > 0;
  if (pre_qr) {
    auto f = qr(w.view());
    q_pre = std::move(f.q);
    w = std::move(f.r);
  }

  Matrix v = Matrix::identity(n);
  jacobi_sweeps(w, v);

  // Column norms of the rotated matrix are the singular values.
  SvdResult out;
  out.s.resize(static_cast<std::size_t>(n));
  Matrix u(w.rows(), n);
  for (index_t j = 0; j < n; ++j) {
    double nrm = 0.0;
    for (index_t i = 0; i < w.rows(); ++i) nrm += w(i, j) * w(i, j);
    nrm = std::sqrt(nrm);
    out.s[static_cast<std::size_t>(j)] = nrm;
    if (nrm > 0.0)
      for (index_t i = 0; i < w.rows(); ++i) u(i, j) = w(i, j) / nrm;
    else
      u(j % w.rows(), j) = 1.0;  // arbitrary unit vector for a null column
  }

  // Sort singular values descending and permute U, V accordingly.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    return out.s[static_cast<std::size_t>(x)] > out.s[static_cast<std::size_t>(y)];
  });
  std::vector<double> s_sorted(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    s_sorted[static_cast<std::size_t>(j)] = out.s[static_cast<std::size_t>(order[static_cast<std::size_t>(j)])];
  out.s = std::move(s_sorted);
  u = gather_cols(u.view(), order);
  v = gather_cols(v.view(), order);

  if (pre_qr) u = matmul(q_pre.view(), u.view());

  if (wide) {
    out.u = std::move(v);
    out.v = std::move(u);
  } else {
    out.u = std::move(u);
    out.v = std::move(v);
  }
  return out;
}

}  // namespace hatrix::la
