#pragma once
/// \file blr2_ulv_tasks.hpp
/// \brief BLR²-ULV (Alg. 1) as a task graph.
///
/// Per block: DIAG_PRODUCT(i) and PARTIAL_FACTOR(i), all mutually
/// independent (the weak-admissibility ULV property); then a single MERGE
/// task permutes every skeleton block into one dense matrix, and one final
/// CHOLESKY factorizes it. The DAG makes Alg. 1's scaling defect visible:
/// the merge/Cholesky pair is a serial O((N·rank/leaf)^3) bottleneck that
/// grows with N — exactly why the multi-level HSS-ULV exists (Sec. 3.1).

#include <memory>

#include "runtime/task_graph.hpp"
#include "ulv/blr2_ulv.hpp"

namespace hatrix::ulv {

struct BLR2ULVTaskState {
  const fmt::BLR2Matrix* a = nullptr;
  std::vector<DiagProductResult> rotated;
  std::vector<NodeFactor> factors;
  std::vector<Matrix> schur;
  Matrix merged_l;
};

struct BLR2ULVDag {
  std::shared_ptr<BLR2ULVTaskState> state;
};

/// Emit the Alg. 1 DAG; with work closures the graph computes the real
/// factorization (read it back with `extract_blr2_factorization`), without
/// it carries kinds/dims for costing.
BLR2ULVDag emit_blr2_ulv_dag(const fmt::BLR2Matrix& a, rt::TaskGraph& graph,
                             bool with_work);

/// Package the executed DAG's results as a BLR2ULV (BLR2ULV::factorize is
/// this DAG run on one worker).
BLR2ULV extract_blr2_factorization(const BLR2ULVDag& dag);

}  // namespace hatrix::ulv
