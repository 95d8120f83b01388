#pragma once
/// \file hss_builder.hpp
/// \brief HSS construction from a block accessor (Sec. 2 of the paper).
///
/// Algorithm: interpolative-decomposition skeletonization with per-node
/// orthonormalization.
///
/// * Leaf i: the shared row basis comes from compressing the off-diagonal
///   block row A(I_i, I_i^c) (Eq. 2) — either against the full complement
///   (`sample_cols == 0`, exact) or against a random column sample
///   (matrix-free O(N) construction, the same idea STRUMPACK's randomized
///   construction uses). A row-ID selects `rank` skeleton rows and the
///   interpolation factor is QR-orthonormalized into U_i; the R factor is
///   retained so upper levels can work on skeleton rows only.
/// * Internal node p: the transfer basis W_p (Eq. 6 nesting) is built from
///   the union of the children's skeleton rows, so each level costs O(rank)
///   kernel evaluations per node.
/// * Couplings: exact U_jᵀ A(I_j, I_i) U_i at the leaf level; skeleton-
///   compressed R̄_j A(sk_j, sk_i) R̄_iᵀ at upper levels.
///
/// Sampled construction carries an optional accuracy guard
/// (HSSOptions::guard_tol): each node's interpolation is validated on fresh
/// probe columns and the sample grows until the probe passes — see
/// hss_builder_tasks.hpp, which also exposes the construction as a task
/// graph for parallel execution. build_hss here runs that graph.

#include <memory>

#include "common/error.hpp"
#include "format/accessor.hpp"
#include "format/hss.hpp"
#include "runtime/dag_dataflow.hpp"

namespace hatrix::fmt {

/// Thrown by the guarded sampled construction when a node's column sample
/// hit HSSOptions::max_sample_cols without the residual probe reaching
/// guard_tol. This names the failure mode that otherwise surfaces much
/// later — and misleadingly — as a "matrix not positive definite" pivot
/// failure inside the ULV Cholesky: the compressed operator was not close
/// enough to the true kernel matrix because the basis was built from too
/// few columns.
class BasisUnderResolvedError : public Error {
 public:
  /// Construct with the failing node's coordinates and guard evidence.
  BasisUnderResolvedError(int level, index_t node, index_t sample_cols,
                          double residual, double tol);

  [[nodiscard]] int level() const { return level_; }          ///< tree level of the node
  [[nodiscard]] index_t node() const { return node_; }        ///< node index in its level
  [[nodiscard]] index_t sample_cols() const { return sample_cols_; }  ///< columns sampled at failure
  [[nodiscard]] double residual() const { return residual_; } ///< last probe residual
  [[nodiscard]] double tol() const { return tol_; }           ///< guard tolerance demanded

 private:
  int level_;
  index_t node_;
  index_t sample_cols_;
  double residual_;
  double tol_;
};

/// Number of tree levels build_hss will use for a given size/leaf choice.
int hss_levels(index_t n, index_t leaf_size);

/// Assign index intervals to every tree node by recursive midpoint splitting
/// (matches geom::ClusterTree, so tree-ordered kernel matrices line up).
/// `h` must already be sized (HSSMatrix(n, levels)).
void assign_hss_intervals(HSSMatrix& h);

/// Aggregate evidence from the accuracy guard over a finished build.
struct HSSBuildReport {
  index_t max_samples = 0;      ///< largest per-node column sample used
  index_t total_growths = 0;    ///< guard growth rounds over all nodes
  double worst_residual = 0.0;  ///< largest accepted probe residual
  index_t rank_escapes = 0;     ///< rank-cap escalations past max_rank
};

/// Build a symmetric HSS approximation of the matrix behind `acc`: emit the
/// construction DAG (hss_builder_tasks.hpp) and run it on a
/// ThreadPoolExecutor with `workers` threads. Per-node deterministic
/// sampling streams make the result bit-identical for every worker count.
/// `report`, when non-null, receives the guard statistics; `release`
/// forwards to emit_hss_build_dag. Throws BasisUnderResolvedError under the
/// conditions documented above.
HSSMatrix build_hss(const BlockAccessor& acc, const HSSOptions& opts, int workers = 1,
                    HSSBuildReport* report = nullptr,
                    rt::ReleaseMode release = rt::ReleaseMode::None);

/// Structure-only HSS "skeleton": index intervals and ranks are assigned
/// (uniform `rank`, clipped by block sizes) but no numerical data is
/// allocated. Used to emit costing-only ULV DAGs at scales where
/// materializing the matrix is pointless — the discrete-event simulator
/// needs shapes, not numbers.
HSSMatrix make_hss_skeleton(index_t n, index_t leaf_size, index_t rank);

/// Random symmetric positive definite HSS matrix with the given tree shape:
/// random orthonormal bases and couplings, leaf diagonals shifted by a bound
/// on the off-diagonal spectral mass so the represented operator is SPD by
/// construction. Lets property tests exercise the ULV machinery on matrices
/// that did not come from any kernel or builder.
HSSMatrix make_random_spd_hss(index_t n, index_t leaf_size, index_t rank, Rng& rng);

}  // namespace hatrix::fmt
