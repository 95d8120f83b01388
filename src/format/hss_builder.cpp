#include "format/hss_builder.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "format/hss_builder_tasks.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool_executor.hpp"

namespace hatrix::fmt {

namespace {

std::string under_resolved_message(int level, index_t node, index_t sample_cols,
                                   double residual, double tol) {
  return "HSS basis under-resolved at node (" + std::to_string(level) + "," +
         std::to_string(node) + "): probe residual " + std::to_string(residual) +
         " > guard tolerance " + std::to_string(tol) + " with " +
         std::to_string(sample_cols) +
         " sampled columns (max_sample_cols cap reached); raise the cap or the "
         "initial sample";
}

}  // namespace

BasisUnderResolvedError::BasisUnderResolvedError(int level, index_t node,
                                                index_t sample_cols,
                                                double residual, double tol)
    : Error(under_resolved_message(level, node, sample_cols, residual, tol)),
      level_(level),
      node_(node),
      sample_cols_(sample_cols),
      residual_(residual),
      tol_(tol) {}

void assign_hss_intervals(HSSMatrix& h) {
  const int L = h.max_level();
  h.node(0, 0).begin = 0;
  h.node(0, 0).end = h.size();
  for (int l = 0; l < L; ++l) {
    for (index_t i = 0; i < h.num_nodes(l); ++i) {
      const auto& parent = h.node(l, i);
      const index_t mid = parent.begin + (parent.block_size() + 1) / 2;
      h.node(l + 1, 2 * i).begin = parent.begin;
      h.node(l + 1, 2 * i).end = mid;
      h.node(l + 1, 2 * i + 1).begin = mid;
      h.node(l + 1, 2 * i + 1).end = parent.end;
    }
  }
}

HSSMatrix make_hss_skeleton(index_t n, index_t leaf_size, index_t rank) {
  const int L = hss_levels(n, leaf_size);
  HSSMatrix h(n, L);
  assign_hss_intervals(h);
  // Leaf ranks clip at the block size; internal ranks clip at the stacked
  // children ranks (the transfer basis has k_c0 + k_c1 rows).
  for (index_t i = 0; i < h.num_nodes(L); ++i)
    h.node(L, i).rank = std::min(rank, h.node(L, i).block_size());
  for (int l = L - 1; l >= 1; --l)
    for (index_t i = 0; i < h.num_nodes(l); ++i)
      h.node(l, i).rank = std::min(
          rank, h.node(l + 1, 2 * i).rank + h.node(l + 1, 2 * i + 1).rank);
  return h;
}

HSSMatrix make_random_spd_hss(index_t n, index_t leaf_size, index_t rank, Rng& rng) {
  HSSMatrix h = make_hss_skeleton(n, leaf_size, rank);
  const int L = h.max_level();

  // Random orthonormal bases (leaf and transfer) and random couplings.
  for (index_t i = 0; i < h.num_nodes(L); ++i) {
    auto& nd = h.node(L, i);
    auto qf = la::qr(Matrix::random_normal(rng, nd.block_size(), nd.rank).view());
    nd.basis = std::move(qf.q);
    nd.diag = Matrix::random_spd(rng, nd.block_size());
  }
  for (int l = L - 1; l >= 1; --l) {
    for (index_t i = 0; i < h.num_nodes(l); ++i) {
      auto& nd = h.node(l, i);
      const index_t rows = h.node(l + 1, 2 * i).rank + h.node(l + 1, 2 * i + 1).rank;
      auto qf = la::qr(Matrix::random_normal(rng, rows, nd.rank).view());
      nd.basis = std::move(qf.q);
    }
  }
  double offdiag_bound = 0.0;
  for (int l = 1; l <= L; ++l) {
    double level_max = 0.0;
    for (index_t t = 0; t < h.num_pairs(l); ++t) {
      Matrix s = Matrix::random_normal(rng, h.node(l, 2 * t + 1).rank,
                                       h.node(l, 2 * t).rank);
      level_max = std::max(level_max, la::norm_fro(s.view()));
      h.coupling(l, t) = std::move(s);
    }
    offdiag_bound += level_max;
  }

  // Shift every leaf diagonal beyond the accumulated off-diagonal mass so
  // the whole operator is SPD (Gershgorin-style bound across levels).
  for (index_t i = 0; i < h.num_nodes(L); ++i) {
    auto& d = h.node(L, i).diag;
    for (index_t r = 0; r < d.rows(); ++r) d(r, r) += offdiag_bound + 1.0;
  }
  return h;
}

int hss_levels(index_t n, index_t leaf_size) {
  HATRIX_CHECK(n > 0 && leaf_size > 0, "bad hss_levels arguments");
  int levels = 0;
  while ((n + (index_t{1} << levels) - 1) / (index_t{1} << levels) > leaf_size)
    ++levels;
  return levels;
}

HSSMatrix build_hss(const BlockAccessor& acc, const HSSOptions& opts, int workers,
                    HSSBuildReport* report, rt::ReleaseMode release) {
  rt::TaskGraph graph;
  HSSBuildDag dag = emit_hss_build_dag(acc, opts, graph, release);
  rt::ThreadPoolExecutor(workers).run(graph);
  if (report != nullptr) *report = build_report(dag);
  return extract_built_hss(dag);
}

}  // namespace hatrix::fmt
