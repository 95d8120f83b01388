#include "ulv/hss_ulv.hpp"

#include <cmath>

#include "common/error.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/hss_solve_tasks.hpp"
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
  // The solve DAG's steps in its insertion order, called directly: leaves to
  // root forward and gather, the root, then root to leaves backward. A
  // level's RHS panels are dropped once its gathers have run, and its
  // skeleton solutions once its children have read them.
  const fmt::HSSMatrix& a = *a_;
  const int L = a.max_level();
  HSSSolveState st(*this, b, x);
  for (int l = L; l >= 1; --l) {
    for (index_t i = 0; i < a.num_nodes(l); ++i) solve_forward(st, l, i);
    for (index_t t = 0; t < a.num_pairs(l); ++t) solve_gather(st, l, t);
    st.rhs[static_cast<std::size_t>(l)].clear();
  }
  solve_root(st);
  for (int l = 1; l <= L; ++l) {
    for (index_t i = 0; i < a.num_nodes(l); ++i) solve_backward(st, l, i);
    st.sol[static_cast<std::size_t>(l) - 1].clear();
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
