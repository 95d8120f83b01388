#include "ulv/blr2_ulv_tasks.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace hatrix::ulv {

BLR2ULVDag emit_blr2_ulv_dag(const fmt::BLR2Matrix& a, rt::TaskGraph& graph,
                             bool with_work) {
  const index_t p = a.num_blocks();
  BLR2ULVDag dag;
  dag.state = std::make_shared<BLR2ULVTaskState>();
  auto& st = *dag.state;
  st.a = &a;
  st.rotated.resize(static_cast<std::size_t>(p));
  st.factors.resize(static_cast<std::size_t>(p));
  st.schur.resize(static_cast<std::size_t>(p));

  std::vector<rt::DataId> diag_d(static_cast<std::size_t>(p));
  std::vector<rt::DataId> rot_d(static_cast<std::size_t>(p));
  std::vector<rt::DataId> schur_d(static_cast<std::size_t>(p));
  index_t total_rank = 0;
  for (index_t i = 0; i < p; ++i) {
    const auto& nd = a.node(i);
    total_rank += nd.rank;
    const std::string tag = "(" + std::to_string(i) + ")";
    diag_d[static_cast<std::size_t>(i)] = graph.register_data(
        "diag" + tag, nd.block_size() * nd.block_size() * 8);
    // The diagonal blocks come from the built matrix: no task writes them.
    graph.mark_input(diag_d[static_cast<std::size_t>(i)]);
    rot_d[static_cast<std::size_t>(i)] = graph.register_data(
        "rotated" + tag, nd.block_size() * nd.block_size() * 8);
    schur_d[static_cast<std::size_t>(i)] =
        graph.register_data("schur" + tag, nd.rank * nd.rank * 8);
  }
  rt::DataId merged_d = graph.register_data("merged", total_rank * total_rank * 8);
  graph.mark_output(merged_d);  // becomes the factorization's root factor

  auto stp = dag.state;
  for (index_t i = 0; i < p; ++i) {
    const auto& nd = a.node(i);
    const std::string tag = "(" + std::to_string(i) + ")";
    const index_t ii = i;
    graph.insert_task(
        "DIAG_PRODUCT" + tag, "diag_product", {nd.block_size(), nd.rank},
        with_work ? std::function<void()>([stp, ii] {
          const auto& nd2 = stp->a->node(ii);
          stp->rotated[static_cast<std::size_t>(ii)] =
              diag_product(nd2.diag.view(), la::F64Block(nd2.basis).view());
        })
                  : std::function<void()>(),
        {{diag_d[static_cast<std::size_t>(i)], rt::Access::Read},
         {rot_d[static_cast<std::size_t>(i)], rt::Access::Write}},
        1, 0);
    graph.insert_task(
        "PARTIAL_FACTOR" + tag, "partial_factor", {nd.block_size(), nd.rank},
        with_work ? std::function<void()>([stp, ii] {
          auto& rot = stp->rotated[static_cast<std::size_t>(ii)];
          auto res = partial_factor_rotated(rot.rotated.view(),
                                            stp->a->node(ii).rank,
                                            std::move(rot.q_comp), 1, ii);
          stp->factors[static_cast<std::size_t>(ii)] = std::move(res.factor);
          stp->schur[static_cast<std::size_t>(ii)] = std::move(res.ss_schur);
          rot.rotated = Matrix();
        })
                  : std::function<void()>(),
        {{rot_d[static_cast<std::size_t>(i)], rt::Access::Read},
         {schur_d[static_cast<std::size_t>(i)], rt::Access::Write}},
        1, 0);
  }

  // One merge of every skeleton block (the permutation of Fig. 4), then one
  // dense Cholesky of the (Σ rank)^2 matrix — Alg. 1's serial bottleneck.
  std::vector<std::pair<rt::DataId, rt::Access>> merge_access;
  for (index_t i = 0; i < p; ++i)
    merge_access.push_back({schur_d[static_cast<std::size_t>(i)], rt::Access::Read});
  merge_access.push_back({merged_d, rt::Access::Write});
  graph.insert_task(
      "MERGE", "merge", {total_rank, 0},
      with_work ? std::function<void()>([stp, total_rank] {
        const auto& a2 = *stp->a;
        const index_t pp = a2.num_blocks();
        Matrix merged(total_rank, total_rank);
        index_t oi = 0;
        for (index_t i = 0; i < pp; ++i) {
          const index_t ki = a2.node(i).rank;
          if (ki > 0)
            la::copy(stp->schur[static_cast<std::size_t>(i)].view(),
                     merged.block(oi, oi, ki, ki));
          index_t oj = 0;
          for (index_t j = 0; j < i; ++j) {
            const index_t kj = a2.node(j).rank;
            if (ki > 0 && kj > 0) {
              la::F64Block sb(a2.coupling(i, j));
              la::copy(sb.view(), merged.block(oi, oj, ki, kj));
              Matrix t = la::transpose(sb.view());
              la::copy(t.view(), merged.block(oj, oi, kj, ki));
            }
            oj += kj;
          }
          oi += ki;
        }
        stp->merged_l = std::move(merged);
      })
                : std::function<void()>(),
      std::move(merge_access), 0, 1);

  graph.insert_task(
      "CHOLESKY", "potrf", {total_rank},
      with_work
          ? std::function<void()>(
                [stp] { factor_pivot_block(stp->merged_l.view(), 0, 0); })
          : std::function<void()>(),
      {{merged_d, rt::Access::ReadWrite}}, 0, 2);
  return dag;
}

BLR2ULV extract_blr2_factorization(const BLR2ULVDag& dag) {
  auto& st = *dag.state;
  HATRIX_CHECK(st.a != nullptr, "dag state has no matrix");
  return BLR2ULV(*st.a, std::move(st.factors), std::move(st.merged_l));
}

}  // namespace hatrix::ulv
