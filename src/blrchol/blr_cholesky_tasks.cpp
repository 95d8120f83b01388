#include "blrchol/blr_cholesky_tasks.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "lowrank/compress.hpp"

namespace hatrix::blrchol {

index_t num_tiles(index_t n, index_t tile) {
  HATRIX_CHECK(n > 0 && tile > 0, "bad tile parameters");
  return (n + tile - 1) / tile;
}

BLRCholDag emit_blr_cholesky_dag(const BLRMatrix& a, rt::TaskGraph& graph,
                                 bool with_work, const BLRCholOptions& opts) {
  BLRCholDag dag;
  dag.state = std::make_shared<BLRMatrix>(a);  // factorization copy
  const index_t p = a.num_tiles();

  dag.diag_data.resize(static_cast<std::size_t>(p));
  dag.tile_data.resize(static_cast<std::size_t>(p));
  for (index_t i = 0; i < p; ++i) {
    // Byte sizes from shapes (tile size x rank), so rank-skeleton matrices
    // price communication the same as materialized ones.
    dag.diag_data[static_cast<std::size_t>(i)] = graph.register_data(
        "D(" + std::to_string(i) + ")", a.tile_size(i) * a.tile_size(i) * 8);
    // In-place factorization: every block is preloaded from the matrix copy
    // and holds a piece of the factor when the graph finishes.
    graph.mark_input(dag.diag_data[static_cast<std::size_t>(i)]);
    graph.mark_output(dag.diag_data[static_cast<std::size_t>(i)]);
    dag.tile_data[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(i));
    for (index_t j = 0; j < i; ++j) {
      dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          graph.register_data(
              "A(" + std::to_string(i) + "," + std::to_string(j) + ")",
              (a.tile_size(i) + a.tile_size(j)) *
                  std::max<index_t>(a.tile(i, j).rank(), 1) * 8);
      graph.mark_input(
          dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      graph.mark_output(
          dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }

  auto st = dag.state;
  for (index_t k = 0; k < p; ++k) {
    const int phase = static_cast<int>(k);
    // The critical path runs down the diagonal: give panel-k tasks higher
    // priority than later panels (LORAPO's critical-path prioritization).
    const int prio = static_cast<int>(p - k);
    const index_t bk = a.tile_size(k);

    graph.insert_task(
        "POTRF(" + std::to_string(k) + ")", "potrf", {bk},
        with_work ? std::function<void()>(
                        [st, k] { factor_diag_tile(st->diag(k).view(), k); })
                  : std::function<void()>(),
        {{dag.diag_data[static_cast<std::size_t>(k)], rt::Access::ReadWrite}},
        prio + 1, phase);

    for (index_t i = k + 1; i < p; ++i) {
      const index_t rank = a.tile(i, k).rank();
      graph.insert_task(
          "TRSM(" + std::to_string(i) + "," + std::to_string(k) + ")", "trsm_lr",
          {bk, rank},
          with_work ? std::function<void()>([st, i, k] {
            auto& t = st->tile(i, k);
            if (t.rank() > 0)
              la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::No,
                       la::Diag::NonUnit, 1.0, st->diag(k).view(), t.v.view());
          })
                    : std::function<void()>(),
          {{dag.diag_data[static_cast<std::size_t>(k)], rt::Access::Read},
           {dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
            rt::Access::ReadWrite}},
          prio, phase);
    }

    for (index_t i = k + 1; i < p; ++i) {
      const index_t bi = a.tile_size(i);
      const index_t rik = a.tile(i, k).rank();
      graph.insert_task(
          "SYRK(" + std::to_string(i) + "," + std::to_string(k) + ")", "syrk_lr",
          {bi, rik},
          with_work ? std::function<void()>([st, i, k] {
            const auto& aik = st->tile(i, k);
            if (aik.rank() == 0) return;
            Matrix w = la::matmul(aik.v.view(), aik.v.view(), la::Trans::Yes,
                                  la::Trans::No);
            Matrix uw = la::matmul(aik.u.view(), w.view());
            la::gemm(-1.0, uw.view(), la::Trans::No, aik.u.view(), la::Trans::Yes,
                     1.0, st->diag(i).view());
          })
                    : std::function<void()>(),
          {{dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
            rt::Access::Read},
           {dag.diag_data[static_cast<std::size_t>(i)], rt::Access::ReadWrite}},
          prio, phase);

      for (index_t j = k + 1; j < i; ++j) {
        const index_t rjk = a.tile(j, k).rank();
        graph.insert_task(
            "GEMM(" + std::to_string(i) + "," + std::to_string(j) + "," +
                std::to_string(k) + ")",
            "gemm_lr", {bi, rik, rjk},
            with_work ? std::function<void()>([st, i, j, k, opts] {
              const auto& aik = st->tile(i, k);
              const auto& ajk = st->tile(j, k);
              if (aik.rank() == 0 || ajk.rank() == 0) return;
              Matrix w = la::matmul(aik.v.view(), ajk.v.view(), la::Trans::Yes,
                                    la::Trans::No);
              lr::LowRank term(la::matmul(aik.u.view(), w.view()),
                               Matrix::from_view(ajk.u.view()));
              st->tile(i, j) = lr::lr_add_round(1.0, st->tile(i, j), -1.0, term,
                                                opts.max_rank, opts.tol);
            })
                      : std::function<void()>(),
            {{dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
              rt::Access::Read},
             {dag.tile_data[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)],
              rt::Access::Read},
             {dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
              rt::Access::ReadWrite}},
            prio, phase);
      }
    }
  }
  return dag;
}

DenseCholDag emit_dense_cholesky_dag(la::ConstMatrixView a, la::index_t n,
                                     la::index_t tile, rt::TaskGraph& graph,
                                     bool with_work) {
  DenseCholDag dag;
  const index_t p = num_tiles(n, tile);
  dag.tiles = p;
  if (with_work) {
    HATRIX_CHECK(a.rows == n && a.cols == n, "dense DAG: matrix size mismatch");
    dag.state = std::make_shared<la::Matrix>(la::Matrix::from_view(a));
  }

  // Captured by value into task closures, which outlive this function.
  auto ts = [n, tile](index_t t) { return std::min(tile, n - t * tile); };
  auto tb = [tile](index_t t) { return t * tile; };

  dag.tile_data.resize(static_cast<std::size_t>(p));
  for (index_t i = 0; i < p; ++i) {
    dag.tile_data[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(i) + 1);
    for (index_t j = 0; j <= i; ++j) {
      dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          graph.register_data(
              "T(" + std::to_string(i) + "," + std::to_string(j) + ")",
              ts(i) * ts(j) * 8);
      // In-place tiled Cholesky: tiles are preloaded and hold the factor.
      graph.mark_input(
          dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      graph.mark_output(
          dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }

  auto st = dag.state;
  for (index_t k = 0; k < p; ++k) {
    const int phase = static_cast<int>(k);
    const int prio = static_cast<int>(p - k);
    graph.insert_task(
        "POTRF(" + std::to_string(k) + ")", "potrf", {ts(k)},
        with_work ? std::function<void()>([st, tb, ts, k] {
          factor_diag_tile(st->block(tb(k), tb(k), ts(k), ts(k)), k);
        })
                  : std::function<void()>(),
        {{dag.tile_data[static_cast<std::size_t>(k)][static_cast<std::size_t>(k)],
          rt::Access::ReadWrite}},
        prio + 1, phase);

    for (index_t i = k + 1; i < p; ++i) {
      graph.insert_task(
          "TRSM(" + std::to_string(i) + "," + std::to_string(k) + ")", "trsm",
          {ts(i), ts(k)},
          with_work ? std::function<void()>([st, tb, ts, i, k] {
            la::trsm(la::Side::Right, la::UpLo::Lower, la::Trans::Yes,
                     la::Diag::NonUnit, 1.0, st->block(tb(k), tb(k), ts(k), ts(k)),
                     st->block(tb(i), tb(k), ts(i), ts(k)));
          })
                    : std::function<void()>(),
          {{dag.tile_data[static_cast<std::size_t>(k)][static_cast<std::size_t>(k)],
            rt::Access::Read},
           {dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
            rt::Access::ReadWrite}},
          prio, phase);
    }
    for (index_t i = k + 1; i < p; ++i) {
      graph.insert_task(
          "SYRK(" + std::to_string(i) + "," + std::to_string(k) + ")", "syrk",
          {ts(i), ts(k)},
          with_work ? std::function<void()>([st, tb, ts, i, k] {
            la::syrk(-1.0, st->block(tb(i), tb(k), ts(i), ts(k)), la::Trans::No,
                     1.0, st->block(tb(i), tb(i), ts(i), ts(i)));
          })
                    : std::function<void()>(),
          {{dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
            rt::Access::Read},
           {dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)],
            rt::Access::ReadWrite}},
          prio, phase);
      for (index_t j = k + 1; j < i; ++j) {
        graph.insert_task(
            "GEMM(" + std::to_string(i) + "," + std::to_string(j) + "," +
                std::to_string(k) + ")",
            "gemm", {ts(i), ts(j), ts(k)},
            with_work ? std::function<void()>([st, tb, ts, i, j, k] {
              la::gemm(-1.0, st->block(tb(i), tb(k), ts(i), ts(k)), la::Trans::No,
                       st->block(tb(j), tb(k), ts(j), ts(k)), la::Trans::Yes, 1.0,
                       st->block(tb(i), tb(j), ts(i), ts(j)));
            })
                      : std::function<void()>(),
            {{dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)],
              rt::Access::Read},
             {dag.tile_data[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)],
              rt::Access::Read},
             {dag.tile_data[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
              rt::Access::ReadWrite}},
            prio, phase);
      }
    }
  }
  return dag;
}

}  // namespace hatrix::blrchol
