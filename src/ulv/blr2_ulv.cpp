#include "ulv/blr2_ulv.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "ulv/blr2_ulv_tasks.hpp"

namespace hatrix::ulv {

BLR2ULV::BLR2ULV(const fmt::BLR2Matrix& a, std::vector<NodeFactor> factors,
                 Matrix merged_l)
    : a_(&a), factors_(std::move(factors)), merged_l_(std::move(merged_l)) {
  const index_t p = a.num_blocks();
  skel_offset_.assign(static_cast<std::size_t>(p) + 1, 0);
  for (index_t i = 0; i < p; ++i)
    skel_offset_[static_cast<std::size_t>(i) + 1] =
        skel_offset_[static_cast<std::size_t>(i)] + a.node(i).rank;
}

BLR2ULV BLR2ULV::factorize(const fmt::BLR2Matrix& a) {
  // The sequential factorization is the Alg. 1 task DAG on one worker.
  rt::TaskGraph graph;
  const BLR2ULVDag dag = emit_blr2_ulv_dag(a, graph, /*with_work=*/true);
  rt::ThreadPoolExecutor(1).run(graph);
  return extract_blr2_factorization(dag);
}

std::vector<double> BLR2ULV::solve(const std::vector<double>& b) const {
  const auto n = static_cast<index_t>(b.size());
  HATRIX_CHECK(n == a_->size(), "solve: rhs length mismatch");
  std::vector<double> x(b.size());
  solve_into({b.data(), n, 1, n}, {x.data(), n, 1, n});
  return x;
}

Matrix BLR2ULV::solve(const Matrix& b) const {
  HATRIX_CHECK(b.rows() == a_->size(), "solve: rhs row count mismatch");
  Matrix x(b.rows(), b.cols());
  solve_into(b.view(), x.view());
  return x;
}

void BLR2ULV::solve_into(la::ConstMatrixView b, la::MatrixView x) const {
  const fmt::BLR2Matrix& a = *a_;
  const index_t p = a.num_blocks();
  const index_t nrhs = b.cols;
  if (nrhs == 0) return;

  // Forward: per-block panel rotate + eliminate; gather skeleton panels.
  std::vector<NodeForwardPanel> fwd(static_cast<std::size_t>(p));
  const index_t total = skel_offset_[static_cast<std::size_t>(p)];
  Matrix z(total, nrhs);
  for (index_t i = 0; i < p; ++i) {
    const auto& nd = a.node(i);
    fwd[static_cast<std::size_t>(i)] = forward_step_panel(
        factors_[static_cast<std::size_t>(i)], la::F64Block(nd.basis).view(),
        b.block(nd.begin, 0, nd.block_size(), nrhs));
    const Matrix& zs = fwd[static_cast<std::size_t>(i)].z_s;
    if (zs.rows() > 0)
      la::copy(zs.view(),
               z.block(skel_offset_[static_cast<std::size_t>(i)], 0, zs.rows(), nrhs));
  }

  // Coupled skeleton solve on the whole panel.
  if (total > 0) la::potrs(merged_l_.view(), z.view());

  // Backward: reconstruct block-local solution panels in place.
  for (index_t i = 0; i < p; ++i) {
    const auto& nd = a.node(i);
    const index_t oi = skel_offset_[static_cast<std::size_t>(i)];
    const index_t ki = a.node(i).rank;
    backward_step_panel(factors_[static_cast<std::size_t>(i)],
                        la::F64Block(nd.basis).view(),
                        fwd[static_cast<std::size_t>(i)], z.block(oi, 0, ki, nrhs),
                        x.block(nd.begin, 0, nd.block_size(), nrhs));
  }
}

std::int64_t BLR2ULV::memory_bytes() const {
  std::int64_t total = merged_l_.bytes();
  for (const auto& f : factors_)
    total += f.q_comp.bytes() + f.l_rr.bytes() + f.l_sr.bytes();
  return total;
}

}  // namespace hatrix::ulv
