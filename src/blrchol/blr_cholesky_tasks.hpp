#pragma once
/// \file blr_cholesky_tasks.hpp
/// \brief Tile-Cholesky task graphs: dense (DPLASMA, Fig. 6) and BLR
/// (LORAPO).
///
/// The dense DAG is the paper's Fig. 6 POTRF/TRSM/SYRK/GEMM pattern. The
/// BLR DAG has the same shape but with low-rank-aware task bodies; its
/// trailing-submatrix updates are the O(N^2)-deep dependency structure that
/// limits LORAPO's weak scaling (Sec. 4.3, 5.3.1).

#include <memory>

#include "blrchol/blr_cholesky.hpp"
#include "runtime/task_graph.hpp"

namespace hatrix::blrchol {

/// Emitted BLR-Cholesky DAG: handles to the tile data (for distribution
/// policies) and the shared factor state.
struct BLRCholDag {
  std::shared_ptr<BLRMatrix> state;            ///< factor-in-progress
  std::vector<rt::DataId> diag_data;           ///< per diagonal tile
  std::vector<std::vector<rt::DataId>> tile_data;  ///< [i][j], i > j
};

/// Emit the LORAPO-style BLR tile Cholesky DAG. With work closures the graph
/// factorizes a copy of `a` in place (then read `dag.state`); without, the
/// DAG carries kinds/dims for the simulator.
BLRCholDag emit_blr_cholesky_dag(const BLRMatrix& a, rt::TaskGraph& graph,
                                 bool with_work, const BLRCholOptions& opts = {});

/// Number of `tile`-sized tiles covering n rows (the last may be smaller).
la::index_t num_tiles(la::index_t n, la::index_t tile);

/// Emitted dense tile Cholesky DAG (DPLASMA baseline / Fig. 6).
struct DenseCholDag {
  std::shared_ptr<la::Matrix> state;
  std::vector<std::vector<rt::DataId>> tile_data;  ///< [i][j], i >= j
  la::index_t tiles = 0;
};

/// Emit the dense tile Cholesky DAG over an n x n matrix with `tile`-sized
/// blocks. With work closures it factorizes a copy of `a`; `a` may be empty
/// when `with_work == false` (costing-only DAG for the simulator).
DenseCholDag emit_dense_cholesky_dag(la::ConstMatrixView a, la::index_t n,
                                     la::index_t tile, rt::TaskGraph& graph,
                                     bool with_work);

}  // namespace hatrix::blrchol
