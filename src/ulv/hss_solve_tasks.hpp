#pragma once
/// \file hss_solve_tasks.hpp
/// \brief The steps of the HSS-ULV solve (Eq. 17) and its task graph.
///
/// The solve has the same level-parallel structure as the factorization:
/// per node, FORWARD(l,i) rotates and eliminates the local RHS panel; the two
/// children's skeleton panels merge into the parent (GATHER(l,t)); after the
/// dense ROOT solve, BACKWARD(l,i) walks back down and leaves write their
/// rows of the solution. Dependencies only cross levels through the gather
/// and the parent's skeleton solution, so an asynchronous runtime overlaps
/// the sweeps of independent subtrees.
///
/// Each step is written once, as a function on a per-call HSSSolveState, and
/// has two drivers: HSSULV::solve calls the steps directly in the DAG's
/// insertion order, and emit_hss_solve_dag inserts one task per step whose
/// body is the same call. Both therefore produce the same bits. Every step
/// works on whole RHS panels (n x nrhs); a single-vector solve is the
/// one-column panel.

#include <vector>

#include "runtime/task_graph.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::ulv {

/// Workspace of one panel solve X = A^{-1} B. The factorization is only
/// read; everything here belongs to the one call, so concurrent solves on a
/// shared HSSULV never share state.
struct HSSSolveState {
  /// Size the per-node panels and seed the leaf RHS panels with the rows of
  /// `b` (n x nrhs, copied). `x` (n x nrhs) is the caller's solution panel:
  /// the leaf BACKWARD steps write straight into it.
  HSSSolveState(const HSSULV& factor, la::ConstMatrixView b, la::MatrixView x);

  const HSSULV* factor;
  const fmt::HSSMatrix* a;
  std::vector<std::vector<Matrix>> rhs;            // [level][node] local B panel
  std::vector<std::vector<NodeForwardPanel>> fwd;  // [level][node]
  std::vector<std::vector<Matrix>> sol;            // [level][node] internal X panel
  la::MatrixView x;                                // the caller's solution panel
};

/// FORWARD(l,i): fwd[l][i] from rhs[l][i] (1 <= l <= L).
void solve_forward(HSSSolveState& st, int level, index_t i);
/// GATHER(l,t): rhs[l-1][t] stacks the skeleton panels z_s of children 2t
/// and 2t+1 (1 <= l <= L).
void solve_gather(HSSSolveState& st, int level, index_t t);
/// ROOT: the dense Cholesky solve of rhs[0][0]. It writes sol[0][0], or x
/// itself when the root is the only node (L = 0).
void solve_root(HSSSolveState& st);
/// BACKWARD(l,i): the node's solution panel from its share of the parent's
/// skeleton solution; leaves write their rows of x (1 <= l <= L).
void solve_backward(HSSSolveState& st, int level, index_t i);

/// Emit the solve of the panel `b` (n x nrhs) into `graph`, one task per
/// step. The tasks own the HSSSolveState (b is copied at emission); run the
/// graph with any executor and the solution is in `x`, which must outlive
/// the run. The result is bit-identical to `factor.solve(b)`.
void emit_hss_solve_dag(const HSSULV& factor, la::ConstMatrixView b,
                        la::MatrixView x, rt::TaskGraph& graph);

}  // namespace hatrix::ulv
