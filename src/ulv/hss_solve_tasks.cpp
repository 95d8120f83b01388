#include "ulv/hss_solve_tasks.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"

namespace hatrix::ulv {

std::vector<double> HSSSolveTaskState::x_col(la::index_t j) const {
  HATRIX_CHECK(j >= 0 && j < x.cols(), "x_col: column out of range");
  std::vector<double> out(static_cast<std::size_t>(x.rows()));
  for (index_t i = 0; i < x.rows(); ++i) out[static_cast<std::size_t>(i)] = x(i, j);
  return out;
}

HSSSolveDag emit_hss_solve_dag(const HSSULV& factor, la::ConstMatrixView b,
                               rt::TaskGraph& graph) {
  const fmt::HSSMatrix& a = factor.matrix();
  const index_t n = a.size();
  HATRIX_CHECK(b.rows == n, "solve dag: rhs row count mismatch");
  const index_t nrhs = b.cols;
  const int L = a.max_level();

  HSSSolveDag dag;
  dag.state = std::make_shared<HSSSolveTaskState>();
  auto& st = *dag.state;
  st.a = &a;
  st.factor = &factor;
  st.rhs.resize(static_cast<std::size_t>(L) + 1);
  st.fwd.resize(static_cast<std::size_t>(L) + 1);
  st.sol.resize(static_cast<std::size_t>(L) + 1);
  st.x = Matrix(n, nrhs);
  for (int l = 0; l <= L; ++l) {
    st.rhs[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(a.num_nodes(l)));
    st.fwd[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(a.num_nodes(l)));
    st.sol[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(a.num_nodes(l)));
  }

  // Data handles per node: the local RHS panel (written by gather), the
  // forward result, and the local solution panel.
  std::vector<std::vector<rt::DataId>> rhs_d(static_cast<std::size_t>(L) + 1);
  std::vector<std::vector<rt::DataId>> fwd_d(static_cast<std::size_t>(L) + 1);
  std::vector<std::vector<rt::DataId>> sol_d(static_cast<std::size_t>(L) + 1);
  for (int l = 0; l <= L; ++l) {
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const std::string tag = rt::node_tag(l, i);
      // Panel row count: leaf panels span the node's rows, internal panels
      // hold the children's gathered skeleton rows.
      const index_t rows =
          l == L ? a.node(l, i).block_size()
                 : a.node(l + 1, 2 * i).rank + a.node(l + 1, 2 * i + 1).rank;
      const index_t bytes =
          8 * std::max<index_t>(rows, 1) * std::max<index_t>(nrhs, 1);
      rhs_d[static_cast<std::size_t>(l)].push_back(
          graph.register_data("rhs" + tag, bytes));
      fwd_d[static_cast<std::size_t>(l)].push_back(
          graph.register_data("fwd" + tag, bytes));
      sol_d[static_cast<std::size_t>(l)].push_back(
          graph.register_data("sol" + tag, bytes));
      if (l == L) {
        // Leaf RHS panels are seeded from `b` before the graph runs; leaf
        // solution panels are the rows of the global solution.
        graph.mark_input(rhs_d[static_cast<std::size_t>(l)].back());
        graph.mark_output(sol_d[static_cast<std::size_t>(l)].back());
      }
    }
  }

  auto stp = dag.state;

  if (L == 0) {
    st.x = Matrix::from_view(b);
    // The lone panel is preloaded with b and solved in place.
    graph.mark_input(sol_d[0][0]);
    graph.mark_output(sol_d[0][0]);
    graph.insert_task(
        "ROOT_SOLVE", "potrs", {n, nrhs},
        [stp] {
          if (stp->x.rows() > 0 && stp->x.cols() > 0)
            la::potrs(stp->factor->root_factor().view(), stp->x.view());
        },
        {{sol_d[0][0], rt::Access::ReadWrite}}, 0, 0);
    return dag;
  }

  // Seed leaf RHS panels.
  for (index_t i = 0; i < a.num_nodes(L); ++i) {
    const auto& nd = a.node(L, i);
    st.rhs[static_cast<std::size_t>(L)][static_cast<std::size_t>(i)] =
        Matrix::from_view(b.block(nd.begin, 0, nd.block_size(), nrhs));
  }

  // Forward sweep + gathers, leaves to root.
  for (int l = L; l >= 1; --l) {
    const int phase = L - l;
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const std::string tag = rt::node_tag(l, i);
      const int li = l;
      const index_t ii = i;
      const auto& f = factor.factor(l, i);
      graph.insert_task(
          "FORWARD" + tag, "fwd_solve", {f.m, f.k},
          [stp, li, ii] {
            auto& lvl_rhs = stp->rhs[static_cast<std::size_t>(li)];
            stp->fwd[static_cast<std::size_t>(li)][static_cast<std::size_t>(ii)] =
                forward_step_panel(stp->factor->factor(li, ii),
                                   la::F64Block(stp->a->node(li, ii).basis).view(),
                                   lvl_rhs[static_cast<std::size_t>(ii)].view());
          },
          {{rhs_d[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Read},
           {fwd_d[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Write}},
          l, phase);
    }
    for (index_t t = 0; t < a.num_pairs(l); ++t) {
      const std::string tag = rt::node_tag(l, t);
      const int li = l;
      const index_t tt = t;
      graph.insert_task(
          "GATHER" + tag, "gather",
          {a.node(l, 2 * t).rank, a.node(l, 2 * t + 1).rank},
          [stp, li, tt] {
            const Matrix& z0 =
                stp->fwd[static_cast<std::size_t>(li)][static_cast<std::size_t>(2 * tt)].z_s;
            const Matrix& z1 =
                stp->fwd[static_cast<std::size_t>(li)][static_cast<std::size_t>(2 * tt + 1)].z_s;
            Matrix up(z0.rows() + z1.rows(), stp->x.cols());
            if (z0.rows() > 0)
              la::copy(z0.view(), up.block(0, 0, z0.rows(), up.cols()));
            if (z1.rows() > 0)
              la::copy(z1.view(), up.block(z0.rows(), 0, z1.rows(), up.cols()));
            stp->rhs[static_cast<std::size_t>(li) - 1][static_cast<std::size_t>(tt)] =
                std::move(up);
          },
          {{fwd_d[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t)],
            rt::Access::Read},
           {fwd_d[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t + 1)],
            rt::Access::Read},
           {rhs_d[static_cast<std::size_t>(l) - 1][static_cast<std::size_t>(t)],
            rt::Access::Write}},
          l, phase);
    }
  }

  // Root dense solve on the whole panel.
  graph.insert_task(
      "ROOT_SOLVE", "potrs", {a.node(1, 0).rank + a.node(1, 1).rank, nrhs},
      [stp] {
        Matrix z = Matrix::from_view(stp->rhs[0][0].view());
        if (z.rows() > 0 && z.cols() > 0)
          la::potrs(stp->factor->root_factor().view(), z.view());
        stp->sol[0][0] = std::move(z);
      },
      {{rhs_d[0][0], rt::Access::Read}, {sol_d[0][0], rt::Access::Write}}, 0, L);

  // Backward sweep, root to leaves.
  for (int l = 1; l <= L; ++l) {
    const int phase = L + l;
    for (index_t i = 0; i < a.num_nodes(l); ++i) {
      const std::string tag = rt::node_tag(l, i);
      const int li = l;
      const index_t ii = i;
      const auto& f = factor.factor(l, i);
      graph.insert_task(
          "BACKWARD" + tag, "bwd_solve", {f.m, f.k},
          [stp, li, ii] {
            const Matrix& parent = stp->sol[static_cast<std::size_t>(li) - 1]
                                           [static_cast<std::size_t>(ii / 2)];
            const auto& fac = stp->factor->factor(li, ii);
            const index_t w = parent.cols();
            const la::ConstMatrixView xs =
                (ii % 2 == 0)
                    ? parent.block(0, 0, fac.k, w)
                    : parent.block(parent.rows() - fac.k, 0, fac.k, w);
            const auto& fw = stp->fwd[static_cast<std::size_t>(li)]
                                     [static_cast<std::size_t>(ii)];
            if (li == stp->a->max_level()) {
              // Leaves write their row block of the global solution.
              const auto& nd = stp->a->node(li, ii);
              backward_step_panel(fac,
                                  la::F64Block(stp->a->node(li, ii).basis).view(),
                                  fw, xs,
                                  stp->x.block(nd.begin, 0, nd.block_size(), w));
            } else {
              Matrix xl(fac.m, w);
              backward_step_panel(fac,
                                  la::F64Block(stp->a->node(li, ii).basis).view(),
                                  fw, xs, xl.view());
              stp->sol[static_cast<std::size_t>(li)][static_cast<std::size_t>(ii)] =
                  std::move(xl);
            }
          },
          {{sol_d[static_cast<std::size_t>(l) - 1][static_cast<std::size_t>(i / 2)],
            rt::Access::Read},
           {fwd_d[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Read},
           {sol_d[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            rt::Access::Write}},
          -l, phase);
    }
  }
  return dag;
}

HSSSolveDag emit_hss_solve_dag(const HSSULV& factor, const std::vector<double>& b,
                               rt::TaskGraph& graph) {
  const la::ConstMatrixView bv{b.data(), static_cast<index_t>(b.size()), 1,
                               static_cast<index_t>(b.size())};
  return emit_hss_solve_dag(factor, bv, graph);
}

}  // namespace hatrix::ulv
