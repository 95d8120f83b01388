#include "ulv/ulv_common.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace hatrix::ulv {

DiagProductResult diag_product(la::ConstMatrixView diag, la::ConstMatrixView basis) {
  const index_t m = diag.rows;
  HATRIX_CHECK(diag.cols == m, "diag_product: diagonal must be square");
  HATRIX_CHECK(basis.rows == m, "diag_product: basis/diagonal size mismatch");

  DiagProductResult out;
  out.q_comp = la::orth_complement(basis);
  const Matrix& q = out.q_comp;  // m x (m-k)
  // The RR, SR and SS blocks of Â = [Q U]ᵀ D [Q U] (Eq. 7).
  const Matrix dq = la::matmul(diag, q.view());  // m x (m-k)
  const Matrix du = la::matmul(diag, basis);     // m x k
  out.rr = la::matmul(q.view(), dq.view(), la::Trans::Yes);
  out.sr = la::matmul(basis, dq.view(), la::Trans::Yes);
  out.ss = la::matmul(basis, du.view(), la::Trans::Yes);
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

PartialFactorResult partial_factor_rotated(DiagProductResult rotated, int level,
                                           index_t node) {
  const index_t r = rotated.rr.rows(), k = rotated.ss.rows();
  HATRIX_CHECK(rotated.rr.cols() == r && rotated.ss.cols() == k,
               "partial_factor_rotated: RR and SS must be square");
  HATRIX_CHECK(rotated.sr.rows() == k && rotated.sr.cols() == r,
               "partial_factor_rotated: SR shape mismatch");
  HATRIX_CHECK(rotated.q_comp.rows() == r + k && rotated.q_comp.cols() == r,
               "partial_factor_rotated: complement shape mismatch");

  PartialFactorResult out;
  out.factor.m = r + k;
  out.factor.k = k;
  out.factor.q_comp = std::move(rotated.q_comp);
  factor_pivot_block(rotated.rr.view(), level, node);  // Eq. 10
  out.factor.l_rr = std::move(rotated.rr);
  la::trsm(la::Side::Right, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit, 1.0,
           out.factor.l_rr.view(), rotated.sr.view());  // Eq. 11
  out.factor.l_sr = std::move(rotated.sr);
  la::syrk(-1.0, out.factor.l_sr.view(), la::Trans::No, 1.0,
           rotated.ss.view());  // Eq. 12
  out.ss_schur = std::move(rotated.ss);
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
