#pragma once
/// \file hss_ulv_tasks.hpp
/// \brief HSS-ULV expressed as a task graph (Fig. 8 of the paper).
///
/// Per node and level:
///   DIAG_PRODUCT(l,i)    reads  diag(l,i), basis(l,i)   writes rotated(l,i)
///   PARTIAL_FACTOR(l,i)  reads  rotated(l,i)            writes factor+schur
///   MERGE(l,t)           reads  schur(l,2t), schur(l,2t+1), coupling(l,t)
///                        writes diag(l-1,t)
///   ROOT_FACTOR          reads  diag(0,0)               writes root
///
/// Dependencies only flow through the merge step (Sec. 4.2): within a level
/// everything is embarrassingly parallel, which is what the asynchronous
/// schedules exploit and the Phased schedule (phase = L - l) deliberately
/// serializes at level boundaries.

#include <memory>

#include "format/hss.hpp"
#include "runtime/dag_dataflow.hpp"
#include "runtime/task_graph.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::ulv {

/// Mutable state shared by the task closures.
struct HSSULVTaskState {
  const fmt::HSSMatrix* a = nullptr;
  std::vector<std::vector<Matrix>> diags;             // [level][node]
  std::vector<std::vector<DiagProductResult>> rotated;
  std::vector<std::vector<NodeFactor>> factors;
  std::vector<std::vector<Matrix>> schur;
  Matrix root_l;
};

/// The emitted DAG plus the data-handle layout (used by the distribution
/// policies to assign block owners) and the shared state (used to recover
/// the factorization after execution).
struct HSSULVDag {
  std::shared_ptr<HSSULVTaskState> state;
  std::vector<std::vector<rt::DataId>> diag_data;      // [level][node]
  std::vector<std::vector<rt::DataId>> basis_data;     // [level][node]
  std::vector<std::vector<rt::DataId>> rotated_data;   // [level][node]
  std::vector<std::vector<rt::DataId>> schur_data;     // [level][node]
  std::vector<std::vector<rt::DataId>> coupling_data;  // [level][pair]
  rt::DataId root_data = -1;
};

/// Emit the HSS-ULV factorization DAG into `graph`.
/// `with_work == true` attaches real computation closures (run the graph,
/// then call `extract_factorization`); `false` emits a costing-only DAG for
/// the discrete-event simulator (kinds/dims populated, no closures).
///
/// Handles carry real byte sizes and input/output marks (leaf diagonals,
/// bases and couplings are graph inputs — they come from the built matrix;
/// the root factor is the output), so rt::analyze_dag runs clean. With
/// `release` != ReleaseMode::None (with_work only) a release hook retires
/// the working diag / rotated / Schur slots at their statically-proven last
/// use: Free drops the storage (the seed kept every slot alive to
/// extraction), Poison NaN-fills it so a read past the last use corrupts
/// the result detectably. The extracted factors and root are never touched.
HSSULVDag emit_hss_ulv_dag(const fmt::HSSMatrix& a, rt::TaskGraph& graph,
                           bool with_work,
                           rt::ReleaseMode release = rt::ReleaseMode::None);

/// After an executor ran the with-work DAG, package the computed pieces as
/// an HSSULV (HSSULV::factorize is this DAG run on one worker).
HSSULV extract_factorization(const HSSULVDag& dag);

}  // namespace hatrix::ulv
