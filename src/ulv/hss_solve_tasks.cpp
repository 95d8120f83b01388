#include "ulv/hss_solve_tasks.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"

namespace hatrix::ulv {

namespace {

/// Rows of node (l, i)'s RHS and solution panels: a leaf's rows of the
/// operator, or an internal node's gathered skeleton rows.
index_t panel_rows(const fmt::HSSMatrix& a, int l, index_t i) {
  if (l == a.max_level()) return a.node(l, i).block_size();
  return a.node(l + 1, 2 * i).rank + a.node(l + 1, 2 * i + 1).rank;
}

/// Where node (l, i)'s solution goes: a leaf's rows of the caller's X, or a
/// fresh skeleton panel of an internal node.
la::MatrixView solution_panel(HSSSolveState& st, int l, index_t i) {
  if (l == st.a->max_level()) {
    const auto& nd = st.a->node(l, i);
    return st.x.block(nd.begin, 0, nd.block_size(), st.x.cols);
  }
  Matrix& s = st.sol[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
  s = Matrix(panel_rows(*st.a, l, i), st.x.cols);
  return s.view();
}

}  // namespace

HSSSolveState::HSSSolveState(const HSSULV& f, la::ConstMatrixView b,
                             la::MatrixView x_out)
    : factor(&f), a(&f.matrix()), x(x_out) {
  HATRIX_CHECK(b.rows == a->size() && x.rows == a->size() && x.cols == b.cols,
               "solve: rhs/solution shape mismatch");
  const int L = a->max_level();
  rhs.resize(static_cast<std::size_t>(L) + 1);
  fwd.resize(static_cast<std::size_t>(L) + 1);
  sol.resize(static_cast<std::size_t>(L) + 1);
  for (int l = 0; l <= L; ++l) {
    const auto nn = static_cast<std::size_t>(a->num_nodes(l));
    rhs[static_cast<std::size_t>(l)].resize(nn);
    fwd[static_cast<std::size_t>(l)].resize(nn);
    sol[static_cast<std::size_t>(l)].resize(nn);
  }
  for (index_t i = 0; i < a->num_nodes(L); ++i) {
    const auto& nd = a->node(L, i);
    rhs[static_cast<std::size_t>(L)][static_cast<std::size_t>(i)] =
        Matrix::from_view(b.block(nd.begin, 0, nd.block_size(), b.cols));
  }
}

void solve_forward(HSSSolveState& st, int level, index_t i) {
  const auto li = static_cast<std::size_t>(level);
  const auto ii = static_cast<std::size_t>(i);
  st.fwd[li][ii] =
      forward_step_panel(st.factor->factor(level, i),
                         st.a->node(level, i).basis.view(), st.rhs[li][ii].view());
}

void solve_gather(HSSSolveState& st, int level, index_t t) {
  const auto li = static_cast<std::size_t>(level);
  const Matrix& z0 = st.fwd[li][static_cast<std::size_t>(2 * t)].z_s;
  const Matrix& z1 = st.fwd[li][static_cast<std::size_t>(2 * t + 1)].z_s;
  const index_t nrhs = st.x.cols;
  Matrix up(z0.rows() + z1.rows(), nrhs);
  if (z0.rows() > 0) la::copy(z0.view(), up.block(0, 0, z0.rows(), nrhs));
  if (z1.rows() > 0) la::copy(z1.view(), up.block(z0.rows(), 0, z1.rows(), nrhs));
  st.rhs[li - 1][static_cast<std::size_t>(t)] = std::move(up);
}

void solve_root(HSSSolveState& st) {
  la::MatrixView x0 = solution_panel(st, 0, 0);
  la::copy(st.rhs[0][0].view(), x0);
  if (x0.rows > 0 && x0.cols > 0) la::potrs(st.factor->root_factor().view(), x0);
}

void solve_backward(HSSSolveState& st, int level, index_t i) {
  const auto li = static_cast<std::size_t>(level);
  const auto ii = static_cast<std::size_t>(i);
  const NodeFactor& f = st.factor->factor(level, i);
  const Matrix& parent = st.sol[li - 1][ii / 2];
  const index_t nrhs = st.x.cols;
  // Child 2t owns the parent's leading k rows, child 2t+1 the trailing ones.
  const la::ConstMatrixView xs = i % 2 == 0
                                     ? parent.block(0, 0, f.k, nrhs)
                                     : parent.block(parent.rows() - f.k, 0, f.k, nrhs);
  backward_step_panel(f, st.a->node(level, i).basis.view(), st.fwd[li][ii], xs,
                      solution_panel(st, level, i));
}

void emit_hss_solve_dag(const HSSULV& factor, la::ConstMatrixView b,
                        la::MatrixView x, rt::TaskGraph& graph) {
  auto stp = std::make_shared<HSSSolveState>(factor, b, x);
  const fmt::HSSMatrix& a = factor.matrix();
  const index_t nrhs = b.cols;
  const int L = a.max_level();

  // Data handles per node: the local RHS panel (written by gather), the
  // forward result, and the local solution panel.
  std::vector<std::vector<rt::DataId>> rhs_d(static_cast<std::size_t>(L) + 1);
  std::vector<std::vector<rt::DataId>> fwd_d(static_cast<std::size_t>(L) + 1);
  std::vector<std::vector<rt::DataId>> sol_d(static_cast<std::size_t>(L) + 1);
  for (int l = 0; l <= L; ++l) {
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const std::string tag = rt::node_tag(l, i);
      const index_t bytes = 8 * std::max<index_t>(panel_rows(a, l, i), 1) *
                            std::max<index_t>(nrhs, 1);
      rhs_d[static_cast<std::size_t>(l)].push_back(
          graph.register_data("rhs" + tag, bytes));
      fwd_d[static_cast<std::size_t>(l)].push_back(
          graph.register_data("fwd" + tag, bytes));
      sol_d[static_cast<std::size_t>(l)].push_back(
          graph.register_data("sol" + tag, bytes));
      if (l == L) {
        // Leaf RHS panels are seeded from `b` at emission; leaf solution
        // panels are the rows of the caller's X.
        graph.mark_input(rhs_d[static_cast<std::size_t>(l)].back());
        graph.mark_output(sol_d[static_cast<std::size_t>(l)].back());
      }
    }
  }

  // Forward sweep + gathers, leaves to root.
  for (int l = L; l >= 1; --l) {
    const auto li = static_cast<std::size_t>(l);
    const int phase = L - l;
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const std::string tag = rt::node_tag(l, i);
      const auto& f = factor.factor(l, i);
      graph.insert_task(
          "FORWARD" + tag, "fwd_solve", {f.m, f.k},
          [stp, l, i] { solve_forward(*stp, l, i); },
          {{rhs_d[li][ii], rt::Access::Read}, {fwd_d[li][ii], rt::Access::Write}},
          l, phase);
    }
    for (index_t t = 0; t < a.num_pairs(l); ++t) {
      const auto tt = static_cast<std::size_t>(t);
      const std::string tag = rt::node_tag(l, t);
      graph.insert_task(
          "GATHER" + tag, "gather",
          {a.node(l, 2 * t).rank, a.node(l, 2 * t + 1).rank},
          [stp, l, t] { solve_gather(*stp, l, t); },
          {{fwd_d[li][2 * tt], rt::Access::Read},
           {fwd_d[li][2 * tt + 1], rt::Access::Read},
           {rhs_d[li - 1][tt], rt::Access::Write}},
          l, phase);
    }
  }

  // Root dense solve on the whole panel.
  graph.insert_task(
      "ROOT_SOLVE", "potrs", {panel_rows(a, 0, 0), nrhs},
      [stp] { solve_root(*stp); },
      {{rhs_d[0][0], rt::Access::Read}, {sol_d[0][0], rt::Access::Write}}, 0, L);

  // Backward sweep, root to leaves.
  for (int l = 1; l <= L; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const int phase = L + l;
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const std::string tag = rt::node_tag(l, i);
      const auto& f = factor.factor(l, i);
      graph.insert_task(
          "BACKWARD" + tag, "bwd_solve", {f.m, f.k},
          [stp, l, i] { solve_backward(*stp, l, i); },
          {{sol_d[li - 1][ii / 2], rt::Access::Read},
           {fwd_d[li][ii], rt::Access::Read},
           {sol_d[li][ii], rt::Access::Write}},
          -l, phase);
    }
  }
}

}  // namespace hatrix::ulv
