#include "ulv/hss_ulv.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_ulv_tasks.hpp"

namespace hatrix::ulv {

HSSULV HSSULV::factorize(const fmt::HSSMatrix& a) {
  // The sequential factorization is the task DAG on one worker: the same
  // task bodies, and bit for bit the same factors, as every parallel run.
  // Working blocks are freed at their last use.
  rt::TaskGraph graph;
  const HSSULVDag dag =
      emit_hss_ulv_dag(a, graph, /*with_work=*/true, rt::ReleaseMode::Free);
  rt::ThreadPoolExecutor(1).run(graph);
  return extract_factorization(dag);
}

std::vector<double> HSSULV::solve(const std::vector<double>& b) const {
  const auto n = static_cast<index_t>(b.size());
  HATRIX_CHECK(n == a_->size(), "solve: rhs length mismatch");
  std::vector<double> x(b.size());
  solve_into({b.data(), n, 1, n}, {x.data(), n, 1, n});
  return x;
}

Matrix HSSULV::solve(const Matrix& b) const {
  HATRIX_CHECK(b.rows() == a_->size(), "solve: rhs row count mismatch");
  Matrix x(b.rows(), b.cols());
  solve_into(b.view(), x.view());
  return x;
}

void HSSULV::solve_into(la::ConstMatrixView b, la::MatrixView x) const {
  const fmt::HSSMatrix& a = *a_;
  const index_t nrhs = b.cols;
  const int L = a.max_level();
  if (nrhs == 0) return;

  if (L == 0) {
    la::copy(b, x);
    la::potrs(root_l_.view(), x);
    return;
  }

  // Forward sweep on whole panels, leaves to root: one gemm/trsm pass per
  // node handles every RHS column (the blocked form of Eq. 17's inner sum).
  std::vector<std::vector<NodeForwardPanel>> fwd(static_cast<std::size_t>(L) + 1);
  std::vector<Matrix> carried(static_cast<std::size_t>(a.num_nodes(L)));
  for (index_t i = 0; i < a.num_nodes(L); ++i) {
    const auto& nd = a.node(L, i);
    carried[static_cast<std::size_t>(i)] =
        Matrix::from_view(b.block(nd.begin, 0, nd.block_size(), nrhs));
  }
  for (int l = L; l >= 1; --l) {
    auto& level_fwd = fwd[static_cast<std::size_t>(l)];
    level_fwd.resize(static_cast<std::size_t>(a.num_nodes(l)));
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      level_fwd[static_cast<std::size_t>(i)] = forward_step_panel(
          factors_[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
          la::F64Block(a.node(l, i).basis).view(),
          carried[static_cast<std::size_t>(i)].view());
    }
    std::vector<Matrix> parent(static_cast<std::size_t>(a.num_nodes(l - 1)));
    for (index_t t = 0; t < a.num_pairs(l); ++t) {
      const Matrix& z0 = level_fwd[static_cast<std::size_t>(2 * t)].z_s;
      const Matrix& z1 = level_fwd[static_cast<std::size_t>(2 * t + 1)].z_s;
      Matrix up(z0.rows() + z1.rows(), nrhs);
      if (z0.rows() > 0) la::copy(z0.view(), up.block(0, 0, z0.rows(), nrhs));
      if (z1.rows() > 0)
        la::copy(z1.view(), up.block(z0.rows(), 0, z1.rows(), nrhs));
      parent[static_cast<std::size_t>(t)] = std::move(up);
    }
    carried = std::move(parent);
  }

  // Root: dense Cholesky solve of the whole skeleton panel.
  Matrix x_root = std::move(carried[0]);
  if (x_root.rows() > 0) la::potrs(root_l_.view(), x_root.view());

  // Backward sweep, root to leaves: split each parent panel into the
  // children's skeleton panels and reconstruct node-local solution panels.
  std::vector<Matrix> down(1);
  down[0] = std::move(x_root);
  for (int l = 1; l <= L; ++l) {
    std::vector<Matrix> next(static_cast<std::size_t>(a.num_nodes(l)));
    for (index_t t = 0; t < a.num_pairs(l); ++t) {
      const Matrix& parent_x = down[static_cast<std::size_t>(t)];
      for (int c = 0; c < 2; ++c) {
        const index_t i = 2 * t + c;
        const auto& f =
            factors_[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
        const la::ConstMatrixView xs =
            c == 0 ? parent_x.block(0, 0, f.k, nrhs)
                   : parent_x.block(parent_x.rows() - f.k, 0, f.k, nrhs);
        const auto& fw =
            fwd[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
        if (l == L) {
          // Leaves write their row block of the global solution directly.
          const auto& nd = a.node(l, i);
          backward_step_panel(f, la::F64Block(a.node(l, i).basis).view(), fw, xs,
                              x.block(nd.begin, 0, nd.block_size(), nrhs));
        } else {
          Matrix xl(f.m, nrhs);
          backward_step_panel(f, la::F64Block(a.node(l, i).basis).view(), fw, xs,
                              xl.view());
          next[static_cast<std::size_t>(i)] = std::move(xl);
        }
      }
    }
    down = std::move(next);
  }
}

Matrix HSSULV::solve_columnwise(const Matrix& b) const {
  HATRIX_CHECK(b.rows() == a_->size(), "solve: rhs row count mismatch");
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(static_cast<std::size_t>(b.rows()));
  for (index_t j = 0; j < b.cols(); ++j) {
    for (index_t i = 0; i < b.rows(); ++i) col[static_cast<std::size_t>(i)] = b(i, j);
    std::vector<double> xj = solve(col);
    for (index_t i = 0; i < b.rows(); ++i) x(i, j) = xj[static_cast<std::size_t>(i)];
  }
  return x;
}

std::vector<double> HSSULV::solve_refined(
    const std::vector<double>& b, int iterations,
    std::vector<double>* residual_history) const {
  if (residual_history != nullptr) residual_history->clear();
  double bnorm = 0.0;
  if (residual_history != nullptr) {
    for (double v : b) bnorm += v * v;
    bnorm = std::sqrt(bnorm);
    if (bnorm == 0.0) bnorm = 1.0;
  }
  std::vector<double> x = solve(b);
  std::vector<double> ax;
  auto residual = [&](std::vector<double>& r) {
    a_->matvec(x, ax);
    r.resize(b.size());
    double rn = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      r[i] = b[i] - ax[i];
      rn += r[i] * r[i];
    }
    if (residual_history != nullptr)
      residual_history->push_back(std::sqrt(rn) / bnorm);
  };
  std::vector<double> r;
  for (int it = 0; it < iterations; ++it) {
    residual(r);
    std::vector<double> dx = solve(r);
    for (std::size_t i = 0; i < b.size(); ++i) x[i] += dx[i];
  }
  // One extra matvec to log the converged residual (skipped when nobody is
  // listening — the hot path pays nothing).
  if (residual_history != nullptr) residual(r);
  return x;
}

std::int64_t HSSULV::memory_bytes() const {
  std::int64_t total = root_l_.bytes();
  for (const auto& level : factors_)
    for (const auto& f : level)
      total += f.q_comp.bytes() + f.l_rr.bytes() + f.l_sr.bytes();
  return total;
}

double ulv_solve_error(const fmt::HSSMatrix& a, const HSSULV& f,
                       const std::vector<double>& b) {
  std::vector<double> ab;
  a.matvec(b, ab);
  std::vector<double> x = f.solve(ab);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - x[i];
    num += d * d;
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

}  // namespace hatrix::ulv
