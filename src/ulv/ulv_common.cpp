#include "ulv/ulv_common.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace hatrix::ulv {

DiagProductResult diag_product(la::ConstMatrixView diag, la::ConstMatrixView basis) {
  const index_t m = diag.rows, k = basis.cols;
  HATRIX_CHECK(diag.cols == m, "diag_product: diagonal must be square");
  HATRIX_CHECK(basis.rows == m, "diag_product: basis/diagonal size mismatch");

  DiagProductResult out;
  out.q_comp = la::orth_complement(basis);
  out.rotated = Matrix(m, m);

  const Matrix& q = out.q_comp;  // m x (m-k)
  // Â = [Qᵀ; Uᵀ] D [Q U] assembled piecewise (Eq. 7), complement first.
  Matrix dq = la::matmul(diag, q.view());   // m x (m-k)
  Matrix du = la::matmul(diag, basis);      // m x k
  if (m - k > 0) {
    la::gemm(1.0, q.view(), la::Trans::Yes, dq.view(), la::Trans::No, 0.0,
             out.rotated.block(0, 0, m - k, m - k));
    if (k > 0) {
      la::gemm(1.0, basis, la::Trans::Yes, dq.view(), la::Trans::No, 0.0,
               out.rotated.block(m - k, 0, k, m - k));
      la::gemm(1.0, q.view(), la::Trans::Yes, du.view(), la::Trans::No, 0.0,
               out.rotated.block(0, m - k, m - k, k));
    }
  }
  if (k > 0)
    la::gemm(1.0, basis, la::Trans::Yes, du.view(), la::Trans::No, 0.0,
             out.rotated.block(m - k, m - k, k, k));
  return out;
}

PivotError::PivotError(int level, index_t node, const std::string& detail)
    : Error("ULV pivot block of node (" + std::to_string(level) + "," +
            std::to_string(node) + ") is not positive definite: " + detail),
      level_(level),
      node_(node) {}

void factor_pivot_block(la::MatrixView a, int level, index_t node) {
  // la::potrf's only failure on a square block is a non-positive pivot.
  HATRIX_CHECK(a.rows == a.cols, "factor_pivot_block: square block required");
  try {
    la::potrf(a);
  } catch (const Error& e) {
    throw PivotError(level, node, e.what());
  }
}

PartialFactorResult partial_factor_rotated(la::ConstMatrixView rotated, index_t k,
                                           Matrix q_comp, int level, index_t node) {
  const index_t m = rotated.rows;
  HATRIX_CHECK(rotated.cols == m, "partial_factor_rotated: square input required");
  HATRIX_CHECK(k >= 0 && k <= m, "partial_factor_rotated: bad rank");

  PartialFactorResult out;
  out.factor.m = m;
  out.factor.k = k;
  out.factor.q_comp = std::move(q_comp);

  Matrix rr = Matrix::from_view(rotated.block(0, 0, m - k, m - k));
  Matrix sr = Matrix::from_view(rotated.block(m - k, 0, k, m - k));
  Matrix ss = Matrix::from_view(rotated.block(m - k, m - k, k, k));

  factor_pivot_block(rr.view(), level, node);  // Eq. 10
  out.factor.l_rr = std::move(rr);
  la::trsm(la::Side::Right, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit, 1.0,
           out.factor.l_rr.view(), sr.view());  // Eq. 11
  out.factor.l_sr = std::move(sr);
  la::syrk(-1.0, out.factor.l_sr.view(), la::Trans::No, 1.0, ss.view());  // Eq. 12
  out.ss_schur = std::move(ss);
  return out;
}

Matrix merge_diag(const Matrix& ss0, const Matrix& ss1, la::ConstMatrixView s_lower) {
  const index_t k0 = ss0.rows(), k1 = ss1.rows();
  HATRIX_CHECK(s_lower.rows == k1 && s_lower.cols == k0,
               "merge: coupling shape mismatch");
  Matrix d(k0 + k1, k0 + k1);
  if (k0 > 0) la::copy(ss0.view(), d.block(0, 0, k0, k0));
  if (k1 > 0) la::copy(ss1.view(), d.block(k0, k0, k1, k1));
  if (k0 > 0 && k1 > 0) {
    la::copy(s_lower, d.block(k0, 0, k1, k0));
    Matrix st = la::transpose(s_lower);
    la::copy(st.view(), d.block(0, k0, k0, k1));
  }
  return d;
}

NodeForwardPanel forward_step_panel(const NodeFactor& f, la::ConstMatrixView basis,
                                    la::ConstMatrixView b_local) {
  HATRIX_CHECK(b_local.rows == f.m, "forward_step_panel: rhs panel row mismatch");
  const index_t nrhs = b_local.cols;
  NodeForwardPanel fw;
  fw.z_r = Matrix(f.m - f.k, nrhs);
  fw.z_s = Matrix(f.k, nrhs);
  if (f.m - f.k > 0) {
    la::gemm(1.0, f.q_comp.view(), la::Trans::Yes, b_local, la::Trans::No, 0.0,
             fw.z_r.view());
    // Z_R = L_RR^{-1} (Qᵀ B)
    la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::No, la::Diag::NonUnit, 1.0,
             f.l_rr.view(), fw.z_r.view());
  }
  if (f.k > 0) {
    la::gemm(1.0, basis, la::Trans::Yes, b_local, la::Trans::No, 0.0, fw.z_s.view());
    if (f.m - f.k > 0)
      la::gemm(-1.0, f.l_sr.view(), la::Trans::No, fw.z_r.view(), la::Trans::No, 1.0,
               fw.z_s.view());
  }
  return fw;
}

void backward_step_panel(const NodeFactor& f, la::ConstMatrixView basis,
                         const NodeForwardPanel& fw, la::ConstMatrixView x_s,
                         la::MatrixView x_out) {
  HATRIX_CHECK(x_s.rows == f.k, "backward_step_panel: skeleton panel row mismatch");
  HATRIX_CHECK(x_out.rows == f.m && x_out.cols == x_s.cols,
               "backward_step_panel: output shape mismatch");
  if (f.m - f.k > 0) {
    // X_R = L_RRᵀ^{-1} (Z_R - L_SRᵀ X_S)
    Matrix rhs = Matrix::from_view(fw.z_r.view());
    if (f.k > 0)
      la::gemm(-1.0, f.l_sr.view(), la::Trans::Yes, x_s, la::Trans::No, 1.0,
               rhs.view());
    la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit, 1.0,
             f.l_rr.view(), rhs.view());
    la::gemm(1.0, f.q_comp.view(), la::Trans::No, rhs.view(), la::Trans::No, 0.0,
             x_out);
    if (f.k > 0)
      la::gemm(1.0, basis, la::Trans::No, x_s, la::Trans::No, 1.0, x_out);
  } else if (f.k > 0) {
    la::gemm(1.0, basis, la::Trans::No, x_s, la::Trans::No, 0.0, x_out);
  } else {
    la::fill(x_out, 0.0);
  }
}

}  // namespace hatrix::ulv
