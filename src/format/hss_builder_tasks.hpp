#pragma once
/// \file hss_builder_tasks.hpp
/// \brief HSS construction expressed as a task graph, with the sampled
/// accuracy guard.
///
/// Mirrors ulv/hss_ulv_tasks: the construction phase gets the same
/// task-graph treatment as the factorization it feeds. Per node and level:
///
///   COMPRESS(L,i)      leaf: gather the diagonal block and build the
///                      shared row basis U_i from (adaptively grown)
///                      sampled far-field columns.    writes node(L,i)
///   TRANSFER(l,p)      internal: merge the children's skeleton rows and
///                      compress them into the transfer basis W_p.
///                      reads node(l+1,2p), node(l+1,2p+1); writes node(l,p)
///   MERGE_SAMPLE(l,t)  sibling coupling S_{2t+1,2t} from the pair's
///                      skeleton rows (exact U_jᵀ A U_i at the leaves).
///                      reads node(l,2t), node(l,2t+1); writes coupling(l,t)
///
/// Dependencies flow strictly through the cluster tree, so every level's
/// COMPRESS/TRANSFER tasks are independent of their siblings and an
/// asynchronous executor can start a parent as soon as its two children
/// finish — no level barriers, exactly like the ULV factorization DAG.
///
/// Every task draws its column samples from a per-node deterministic RNG
/// stream (seeded from HSSOptions::seed, the level, and the node index), so
/// sequential and parallel execution produce bit-identical matrices
/// regardless of scheduling order.

#include <memory>
#include <vector>

#include "format/accessor.hpp"
#include "format/hss.hpp"
#include "format/hss_builder.hpp"
#include "runtime/dag_dataflow.hpp"
#include "runtime/task_graph.hpp"

namespace hatrix::fmt {

/// Mutable state shared by the construction task closures.
struct HSSBuildState {
  /// Per-node construction bookkeeping carried up the tree.
  struct NodeState {
    std::vector<index_t> skel;  ///< global skeleton row indices
    Matrix rfac;                ///< R̄: Ũᵀ A(I, far) ≈ R̄ · A(skel, far)
    index_t samples = 0;        ///< far-field columns finally sampled
    double residual = 0.0;      ///< last guard probe residual (0: no guard)
    index_t growths = 0;        ///< guard-triggered sample growth rounds
    index_t rank_escapes = 0;   ///< rank-cap escalations past max_rank
  };

  const BlockAccessor* acc = nullptr;  ///< matrix being compressed (not owned)
  HSSOptions opts;                     ///< construction parameters
  HSSMatrix h;                         ///< the matrix under construction
  double scale = 1.0;                  ///< operator diagonal scale the guard normalizes by
  std::vector<std::vector<NodeState>> st;  ///< [level][node] bookkeeping
};

/// The emitted construction DAG plus its data-handle layout (for mapping /
/// inspection) and the shared state the tasks write into.
struct HSSBuildDag {
  std::shared_ptr<HSSBuildState> state;            ///< closures' shared state
  std::vector<std::vector<rt::DataId>> node_data;  ///< [level][node] basis+skeleton handles
  std::vector<std::vector<rt::DataId>> coupling_data;  ///< [level][pair] handles
};

/// Emit the HSS construction DAG into `graph`. Tasks carry real work
/// closures; run them through an executor (as build_hss does), then
/// call extract_built_hss. Closures may throw
/// BasisUnderResolvedError (see hss_builder.hpp); executors rethrow it.
///
/// The emitter annotates handle bytes and marks couplings as graph outputs,
/// so rt::analyze_dag runs clean on the emitted DAG. With `release` !=
/// ReleaseMode::None it installs a release hook that retires a node's
/// carried-up sampling state (NodeState::rfac and ::skel — dead weight once
/// the parent TRANSFER and sibling MERGE_SAMPLE consumed them) at the
/// handle's statically-proven last use: Free drops the storage, Poison
/// overwrites it with NaNs / zeroed indices so a read past the last use
/// corrupts the result detectably. The basis/diag/coupling blocks of the
/// finished matrix are never touched.
HSSBuildDag emit_hss_build_dag(const BlockAccessor& acc, const HSSOptions& opts,
                               rt::TaskGraph& graph,
                               rt::ReleaseMode release = rt::ReleaseMode::None);

/// After every task of the DAG has executed, move the finished matrix out
/// of the shared state.
HSSMatrix extract_built_hss(HSSBuildDag& dag);

/// Guard statistics of a finished build (valid after the DAG executed).
HSSBuildReport build_report(const HSSBuildDag& dag);

}  // namespace hatrix::fmt
