#pragma once
/// \file hss.hpp
/// \brief Hierarchically Semi-Separable (HSS) matrix (symmetric, weak
/// admissibility).
///
/// Structure follows the paper's notation (Sec. 2, Fig. 2): a complete
/// binary tree of index intervals; level 0 is the root, level `max_level()`
/// holds the leaves. Per leaf: a dense diagonal block and a shared row basis
/// U. Per internal node: a transfer basis W that nests the children's bases
/// (Eq. 6). Per sibling pair at every level: one skeleton coupling block
/// S (we store the lower block S_{2t+1,2t}; symmetry gives the upper).
///
/// The matrix represented is:
///   A(I_i, I_i)   = diag_i                          (leaf)
///   A(I_j, I_i)   = Ũ_j · S_{j,i} · Ũ_iᵀ            (sibling pairs, j = i+1)
/// with Ũ the nested basis: Ũ_leaf = U, Ũ_p = blockdiag(Ũ_c0, Ũ_c1) · W_p.

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace hatrix::fmt {

using la::index_t;
using la::Matrix;

/// Construction parameters of the HSS builder.
struct HSSOptions {
  index_t leaf_size = 256;  ///< maximum leaf block size (paper Table 2)
  index_t max_rank = 100;   ///< rank cap for every basis (paper "Max Rank")
  double tol = 0.0;         ///< relative truncation tolerance (0: rank-only)
  /// Number of sampled far-field columns per node used to find the basis;
  /// 0 means exact construction (compress against the full off-diagonal
  /// block row — O(N^2 k / leaf) work, only sensible for modest N). With the
  /// accuracy guard enabled this is the *initial* sample, grown per node
  /// until the guard's residual probe passes.
  index_t sample_cols = 0;
  std::uint64_t seed = 42;  ///< RNG seed for column sampling
  /// Residual tolerance of the sampled-construction accuracy guard; 0
  /// disables the guard (the pre-guard behavior: a fixed sample is trusted
  /// blindly). When > 0 and sample_cols > 0, every node's interpolation
  /// basis is validated on fresh probe columns and the column sample grows
  /// geometrically until the probe passes. The residual is measured
  /// *relative to the operator's diagonal scale* (max |A(i,i)|, which for
  /// an SPD kernel matrix bounds every entry): it approximates the
  /// compression error relative to ||A||, so positive definiteness is
  /// protected by choosing guard_tol at or below lambda_min/lambda_max —
  /// e.g. the nugget for a unit-variance covariance. A sample that reaches
  /// the full off-diagonal complement is exact and always accepted.
  ///
  /// A node whose probe residual is pinned at the rank-truncation floor
  /// rather than limited by sample coverage has its rank cap raised past
  /// max_rank (the rank escape); otherwise it would grow its sample to the
  /// full complement, silently degrading to exact O(N^2) sampling, and still
  /// miss guard_tol. Each escalation doubles the node's rank cap (bounded by
  /// its block row count), emits a one-line stderr diagnostic, and is
  /// counted in HSSBuildReport::rank_escapes.
  double guard_tol = 0.0;
  /// Cap on the grown per-node column sample (0: uncapped — the sample may
  /// grow to the full complement). With a cap, a node that exhausts it
  /// without passing the guard throws BasisUnderResolvedError instead of
  /// silently producing an under-resolved basis.
  index_t max_sample_cols = 0;
};

/// Symmetric HSS matrix: complete binary tree of intervals with nested
/// shared bases and per-pair skeleton couplings.
class HSSMatrix {
 public:
  /// One tree node's stored data.
  struct Node {
    index_t begin = 0;  ///< global index interval [begin, end)
    index_t end = 0;    ///< one past the last global index
    index_t rank = 0;   ///< basis column count k
    /// Leaf: U (block_size x k). Internal: W ((k_c0 + k_c1) x k).
    /// Orthonormal columns. Empty at the root.
    Matrix basis;
    /// Dense diagonal block (leaf level only).
    Matrix diag;

    /// Number of rows owned by this node.
    [[nodiscard]] index_t block_size() const { return end - begin; }
  };

  HSSMatrix() = default;
  /// Allocate the tree layout for an n x n matrix with the given depth.
  HSSMatrix(index_t n, int max_level);

  /// Matrix dimension N.
  [[nodiscard]] index_t size() const { return n_; }
  /// Leaf level of the tree (level 0 is the root).
  [[nodiscard]] int max_level() const { return max_level_; }
  /// Nodes at `level` (complete binary tree).
  [[nodiscard]] index_t num_nodes(int level) const { return index_t{1} << level; }
  /// Sibling pairs at `level`.
  [[nodiscard]] index_t num_pairs(int level) const { return num_nodes(level) / 2; }

  /// Node i at `level`.
  [[nodiscard]] Node& node(int level, index_t i);
  /// Node i at `level` (read-only).
  [[nodiscard]] const Node& node(int level, index_t i) const;

  /// Sibling coupling S_{2t+1, 2t} at `level` (k_{2t+1} x k_{2t}).
  [[nodiscard]] Matrix& coupling(int level, index_t pair);
  /// Sibling coupling S_{2t+1, 2t} at `level` (read-only).
  [[nodiscard]] const Matrix& coupling(int level, index_t pair) const;

  /// y = A x using the compressed representation, O(N·k) flops.
  void matvec(const std::vector<double>& x, std::vector<double>& y) const;

  /// Materialize the represented dense matrix (tests / small problems).
  [[nodiscard]] Matrix dense() const;

  /// Explicit nested basis Ũ of a node (block_size x rank), formed
  /// recursively; used by dense() and by tests checking the nesting
  /// property.
  [[nodiscard]] Matrix full_basis(int level, index_t i) const;

  /// Largest basis rank anywhere in the tree.
  [[nodiscard]] index_t max_rank_used() const;

  /// Total compressed storage in bytes (diagonals + bases + couplings).
  [[nodiscard]] std::int64_t memory_bytes() const;

 private:
  index_t n_ = 0;
  int max_level_ = 0;
  std::vector<std::vector<Node>> nodes_;         // [level][i]
  std::vector<std::vector<Matrix>> couplings_;   // [level][pair], level >= 1
};

}  // namespace hatrix::fmt
