#include "ulv/hss_ulv_tasks.hpp"

#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace hatrix::ulv {

HSSULVDag emit_hss_ulv_dag(const fmt::HSSMatrix& a, rt::TaskGraph& graph,
                           bool with_work, rt::ReleaseMode release) {
  const int L = a.max_level();
  HSSULVDag dag;
  dag.state = std::make_shared<HSSULVTaskState>();
  auto& st = *dag.state;
  st.a = &a;
  st.diags.resize(static_cast<std::size_t>(L) + 1);
  st.rotated.resize(static_cast<std::size_t>(L) + 1);
  st.factors.resize(static_cast<std::size_t>(L) + 1);
  st.schur.resize(static_cast<std::size_t>(L) + 1);
  dag.diag_data.resize(static_cast<std::size_t>(L) + 1);
  dag.basis_data.resize(static_cast<std::size_t>(L) + 1);
  dag.rotated_data.resize(static_cast<std::size_t>(L) + 1);
  dag.schur_data.resize(static_cast<std::size_t>(L) + 1);
  dag.coupling_data.resize(static_cast<std::size_t>(L) + 1);

  // Register data handles for every level.
  for (int l = 0; l <= L; ++l) {
    const auto nn = static_cast<std::size_t>(a.num_nodes(l));
    st.diags[static_cast<std::size_t>(l)].resize(nn);
    st.rotated[static_cast<std::size_t>(l)].resize(nn);
    st.factors[static_cast<std::size_t>(l)].resize(nn);
    st.schur[static_cast<std::size_t>(l)].resize(nn);
    auto& dd = dag.diag_data[static_cast<std::size_t>(l)];
    auto& bd = dag.basis_data[static_cast<std::size_t>(l)];
    auto& rd = dag.rotated_data[static_cast<std::size_t>(l)];
    auto& sd = dag.schur_data[static_cast<std::size_t>(l)];
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const auto& nd = a.node(l, i);
      const std::string tag = rt::node_tag(l, i);
      // The working diagonal at level l for internal nodes is (k0+k1)^2; at
      // the leaves it is the dense leaf block.
      index_t m = nd.block_size();
      if (l < L)
        m = a.node(l + 1, 2 * i).rank + a.node(l + 1, 2 * i + 1).rank;
      // Byte sizes are computed from the block shapes (not the stored
      // matrices) so costing-only DAGs built from rank skeletons price
      // communication identically to fully materialized ones.
      dd.push_back(graph.register_data("diag" + tag, m * m * 8));
      bd.push_back(graph.register_data("basis" + tag, m * nd.rank * 8));
      // The rotated slot's RR, SR and SS blocks; SRᵀ is never formed.
      const index_t r = m - nd.rank;
      rd.push_back(graph.register_data(
          "rotated" + tag, (r * r + nd.rank * r + nd.rank * nd.rank) * 8));
      sd.push_back(graph.register_data("schur" + tag, nd.rank * nd.rank * 8));
      // Bases come from the built matrix: no task writes them. Same for the
      // leaf diagonals, seeded from a.node(L,i).diag before the graph runs.
      graph.mark_input(bd.back());
      if (l == L) graph.mark_input(dd.back());
    }
    if (l >= 1) {
      auto& cd = dag.coupling_data[static_cast<std::size_t>(l)];
      for (index_t t = 0; t < a.num_pairs(l); ++t) {
        cd.push_back(graph.register_data(
            "S(" + std::to_string(l) + "," + std::to_string(t) + ")",
            a.node(l, 2 * t).rank * a.node(l, 2 * t + 1).rank * 8));
        graph.mark_input(cd.back());  // read-only piece of the built matrix
      }
    }
  }
  // Root working block: the merged top-level diagonal (dense leaf when the
  // tree has a single node).
  const index_t kroot =
      L >= 1 ? a.node(1, 0).rank + a.node(1, 1).rank : a.size();
  dag.root_data = graph.register_data("root", kroot * kroot * 8);
  graph.mark_output(dag.root_data);  // the factorization's result

  // Early release: the working diagonal / rotated / Schur slots retire at
  // their statically-proven last use instead of living until extraction.
  // The slots the factorization keeps (factors, root_l) have no handles and
  // are never touched; neither are the const built-matrix blocks behind the
  // basis/coupling input handles.
  if (with_work && release != rt::ReleaseMode::None) {
    enum class Slot { Diag, Rotated, Schur };
    std::unordered_map<rt::DataId, std::pair<Slot, std::pair<int, index_t>>> slot_of;
    for (int l = 0; l <= L; ++l)
      for (index_t i = 0; i < a.num_nodes(l); ++i) {
        const auto li = static_cast<std::size_t>(l);
        const auto ii = static_cast<std::size_t>(i);
        slot_of[dag.diag_data[li][ii]] = {Slot::Diag, {l, i}};
        slot_of[dag.rotated_data[li][ii]] = {Slot::Rotated, {l, i}};
        slot_of[dag.schur_data[li][ii]] = {Slot::Schur, {l, i}};
      }
    const bool poison = release == rt::ReleaseMode::Poison;
    auto stp = dag.state;
    graph.set_release_hook([stp, slot_of, poison](rt::DataId d) {
      const auto it = slot_of.find(d);
      if (it == slot_of.end()) return;
      const auto li = static_cast<std::size_t>(it->second.second.first);
      const auto ii = static_cast<std::size_t>(it->second.second.second);
      const double nan = std::numeric_limits<double>::quiet_NaN();
      switch (it->second.first) {
        case Slot::Diag:
          if (poison)
            la::fill(stp->diags[li][ii].view(), nan);
          else
            stp->diags[li][ii] = Matrix();
          break;
        case Slot::Rotated:
          if (poison) {
            auto& rot = stp->rotated[li][ii];
            for (Matrix* mat : {&rot.q_comp, &rot.rr, &rot.sr, &rot.ss})
              la::fill(mat->view(), nan);
          } else {
            stp->rotated[li][ii] = DiagProductResult();
          }
          break;
        case Slot::Schur:
          if (poison)
            la::fill(stp->schur[li][ii].view(), nan);
          else
            stp->schur[li][ii] = Matrix();
          break;
      }
    });
  }

  if (with_work && L >= 0) {
    // Seed the leaf working diagonals.
    for (index_t i = 0; i < a.num_nodes(L); ++i)
      st.diags[static_cast<std::size_t>(L)][static_cast<std::size_t>(i)] =
          Matrix::from_view(a.node(L, i).diag.view());
  }

  if (L == 0) {
    auto stp = dag.state;
    graph.insert_task(
        "ROOT_FACTOR", "potrf", {a.size()},
        with_work ? std::function<void()>([stp] {
          stp->root_l = Matrix::from_view(stp->a->node(0, 0).diag.view());
          factor_pivot_block(stp->root_l.view(), 0, 0);
        })
                  : std::function<void()>(),
        {{dag.root_data, rt::Access::Write}}, /*priority=*/0, /*phase=*/0);
    return dag;
  }

  // Levels leaf..1: diagonal product, partial factorization, merge.
  for (int l = L; l >= 1; --l) {
    const int phase = L - l;
    const int priority = l;  // deeper levels drain first under contention
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const auto& nd = a.node(l, i);
      const index_t m = (l < L)
                            ? a.node(l + 1, 2 * i).rank + a.node(l + 1, 2 * i + 1).rank
                            : nd.block_size();
      const std::string tag = rt::node_tag(l, i);
      auto stp = dag.state;
      const int li = l;
      const index_t ii = i;

      graph.insert_task(
          "DIAG_PRODUCT" + tag, "diag_product", {m, nd.rank},
          with_work ? std::function<void()>([stp, li, ii] {
            const auto& nd2 = stp->a->node(li, ii);
            auto& slot =
                stp->rotated[static_cast<std::size_t>(li)][static_cast<std::size_t>(ii)];
            slot = diag_product(
                stp->diags[static_cast<std::size_t>(li)][static_cast<std::size_t>(ii)]
                    .view(),
                nd2.basis.view());
          })
                    : std::function<void()>(),
          {{dag.diag_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Read},
           {dag.basis_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Read},
           {dag.rotated_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Write}},
          priority, phase);

      graph.insert_task(
          "PARTIAL_FACTOR" + tag, "partial_factor", {m, nd.rank},
          with_work ? std::function<void()>([stp, li, ii] {
            // Factors the slot's blocks in place and moves them out, which
            // leaves the slot empty.
            auto res = partial_factor_rotated(
                std::move(stp->rotated[static_cast<std::size_t>(li)]
                                      [static_cast<std::size_t>(ii)]),
                li, ii);
            stp->factors[static_cast<std::size_t>(li)][static_cast<std::size_t>(ii)] =
                std::move(res.factor);
            stp->schur[static_cast<std::size_t>(li)][static_cast<std::size_t>(ii)] =
                std::move(res.ss_schur);
          })
                    : std::function<void()>(),
          // `rotated` is declared ReadWrite, not Read: the task factors the
          // slot's blocks in place and moves them out, so any later reader
          // of this handle would race with it.
          {{dag.rotated_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::ReadWrite},
           {dag.schur_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Write}},
          priority, phase);
    }

    for (index_t t = 0; t < a.num_pairs(l); ++t) {
      const std::string tag = rt::node_tag(l, t);
      auto stp = dag.state;
      const int li = l;
      const index_t tt = t;
      const index_t k0 = a.node(l, 2 * t).rank;
      const index_t k1 = a.node(l, 2 * t + 1).rank;
      graph.insert_task(
          "MERGE" + tag, "merge", {k0, k1},
          with_work ? std::function<void()>([stp, li, tt] {
            auto& lvl = stp->schur[static_cast<std::size_t>(li)];
            stp->diags[static_cast<std::size_t>(li) - 1][static_cast<std::size_t>(tt)] =
                merge_diag(lvl[static_cast<std::size_t>(2 * tt)],
                           lvl[static_cast<std::size_t>(2 * tt + 1)],
                           stp->a->coupling(li, tt).view());
          })
                    : std::function<void()>(),
          {{dag.schur_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t)],
            rt::Access::Read},
           {dag.schur_data[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(2 * t + 1)],
            rt::Access::Read},
           {dag.coupling_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(t)],
            rt::Access::Read},
           {dag.diag_data[static_cast<std::size_t>(l) - 1][static_cast<std::size_t>(t)],
            rt::Access::Write}},
          priority, phase);
    }
  }

  // Root factorization.
  {
    auto stp = dag.state;
    const index_t kroot = a.node(1, 0).rank + a.node(1, 1).rank;
    graph.insert_task(
        "ROOT_FACTOR", "potrf", {kroot},
        with_work ? std::function<void()>([stp] {
          stp->root_l = std::move(stp->diags[0][0]);
          factor_pivot_block(stp->root_l.view(), 0, 0);
        })
                  : std::function<void()>(),
        {{dag.diag_data[0][0], rt::Access::Read},
         {dag.root_data, rt::Access::Write}},
        /*priority=*/0, /*phase=*/L);
  }

  return dag;
}

HSSULV extract_factorization(const HSSULVDag& dag) {
  auto& st = *dag.state;
  HATRIX_CHECK(st.a != nullptr, "dag state has no matrix");
  return HSSULV(*st.a, std::move(st.factors), std::move(st.root_l));
}

}  // namespace hatrix::ulv
