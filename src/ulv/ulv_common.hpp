#pragma once
/// \file ulv_common.hpp
/// \brief Per-node pieces of the HSS-ULV factorization and solve.
///
/// Every level of the HSS-ULV repeats the single-level BLR²-ULV step of
/// Alg. 1 (Sec. 3, Eq. 7-12) at each node: rotate the diagonal block by the
/// full basis U_F = [Uᴿ Uˢ], partially Cholesky-factorize the redundant (RR)
/// part, and leave a Schur-complement skeleton (SS) block for the merge
/// step.

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace hatrix::ulv {

using la::index_t;
using la::Matrix;

/// Per-node ULV factor: the complement basis and the partial Cholesky
/// pieces. With k = rank and m = the node's current dimension:
///   q_comp : m x (m-k)   orthonormal complement Uᴿ of the shared basis Uˢ
///   l_rr   : (m-k)x(m-k) lower Cholesky factor of Â^RR (Eq. 10)
///   l_sr   : k x (m-k)   coupling Â^SR L_RR^{-T} (Eq. 11)
/// The Schur complement Â^SS - L_SR L_SRᵀ (Eq. 12) is returned separately
/// and consumed by the merge step.
struct NodeFactor {
  Matrix q_comp;
  Matrix l_rr;
  Matrix l_sr;
  index_t m = 0;
  index_t k = 0;
};

/// Result of the per-node "diagonal product + partial factorization":
/// the factor plus the skeleton Schur complement passed to the parent.
struct PartialFactorResult {
  NodeFactor factor;
  Matrix ss_schur;  ///< k x k
};

/// Output of the "Diagonal Product" task (Fig. 8): the complement basis and
/// the three blocks of the rotated diagonal Â = U_Fᵀ D U_F, laid out
/// complement-first as [RR SRᵀ; SR SS] (Eq. 7), that the partial
/// factorization reads. The SRᵀ block is the transpose of SR and is not
/// formed.
struct DiagProductResult {
  Matrix q_comp;  ///< m x (m-k)      Uᴿ, the orthonormal complement of Uˢ
  Matrix rr;      ///< (m-k) x (m-k)  Uᴿᵀ D Uᴿ
  Matrix sr;      ///< k x (m-k)      Uˢᵀ D Uᴿ
  Matrix ss;      ///< k x k          Uˢᵀ D Uˢ
};

/// The "Diagonal Product" step: rotate the node's dense diagonal block by
/// [Uᴿ Uˢ]. `basis` must have orthonormal columns.
DiagProductResult diag_product(la::ConstMatrixView diag, la::ConstMatrixView basis);

/// A ULV pivot block (a node's redundant RR block, or the root block) is not
/// positive definite: the compressed operator is not SPD. Names the node;
/// the root block is (0, 0).
class PivotError : public Error {
 public:
  PivotError(int level, index_t node, const std::string& detail);
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] index_t node() const { return node_; }

 private:
  int level_;
  index_t node_;
};

/// In-place la::potrf of the pivot block of node (level, node); a failed
/// pivot is rethrown as PivotError.
void factor_pivot_block(la::MatrixView a, int level, index_t node);

/// The "Partial Factorization" step (Eq. 10-12) on a rotated diagonal, in
/// place: RR becomes its Cholesky factor L_RR, SR the coupling
/// SR L_RR⁻ᵀ = L_SR, and SS the Schur complement SS - L_SR L_SRᵀ; the rank
/// k is SS's order. Throws PivotError naming (level, node) if RR is not
/// positive definite.
PartialFactorResult partial_factor_rotated(DiagProductResult rotated, int level,
                                           index_t node);

/// The Merge step (line 4 of Alg. 2): assemble a parent's dense diagonal
///   D_p = [ SS_0  Sᵀ ; S  SS_1 ]
/// from its children's skeleton Schur complements and the sibling coupling
/// S between (2t+1, 2t).
Matrix merge_diag(const Matrix& ss0, const Matrix& ss1, la::ConstMatrixView s_lower);

/// Forward-solve bookkeeping for a RHS panel at one node: each column is one
/// right-hand side, and the rotations / triangular solves are applied to all
/// of them at once, which streams the node's factor blocks through the cache
/// once per panel instead of once per RHS. A single-RHS solve is the
/// one-column panel.
struct NodeForwardPanel {
  Matrix z_r;  ///< (m-k) x nrhs: L_RR^{-1} Qᵀ B
  Matrix z_s;  ///< k x nrhs: Uˢᵀ B - L_SR Z_R, passed up
};

/// Forward step of the ULV solve at one node (Eq. 15/17 inner factor) on an
/// (m x nrhs) panel: rotate the local RHS and eliminate the redundant part.
/// Column j of the result equals the step on column j alone exactly (same
/// operation order per column), so blocked and per-column solves are
/// bit-identical.
NodeForwardPanel forward_step_panel(const NodeFactor& f, la::ConstMatrixView basis,
                                    la::ConstMatrixView b_local);

/// Panel backward step: reconstruct the node-local solution panel
/// X = Uᴿ X_R + Uˢ X_S (m x nrhs) into `x_out` from the skeleton solution
/// panel `x_s` (k x nrhs).
void backward_step_panel(const NodeFactor& f, la::ConstMatrixView basis,
                         const NodeForwardPanel& fw, la::ConstMatrixView x_s,
                         la::MatrixView x_out);

}  // namespace hatrix::ulv
