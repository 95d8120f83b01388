#pragma once
/// \file hatrix.hpp
/// \brief Umbrella header: the library's public API in one include.
///
/// Typical flow:
///   1. geometry  -> geom::grid2d / circle2d / random2d + geom::ClusterTree
///   2. operator  -> kernels::make_kernel + kernels::KernelMatrix
///   3. compress  -> fmt::build_hss (or build_blr for the BLR baseline)
///   4. factorize -> ulv::HSSULV::factorize (O(N))
///   5. solve     -> factor.solve(b) / solve_refined(b)
///
/// Parallel execution: ulv::emit_hss_ulv_dag + rt::ThreadPoolExecutor.
/// Distributed what-if studies: driver::run_simulated (see DESIGN.md).

#include "blrchol/blr_cholesky.hpp"
#include "blrchol/blr_cholesky_tasks.hpp"
#include "common/cli.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "distsim/cost_model.hpp"
#include "distsim/des.hpp"
#include "distsim/mapping.hpp"
#include "distsim/network_model.hpp"
#include "format/accessor.hpp"
#include "format/blr.hpp"
#include "format/hss.hpp"
#include "format/hss_builder.hpp"
#include "geometry/cluster_tree.hpp"
#include "geometry/domain.hpp"
#include "hatrix/drivers.hpp"
#include "hatrix/experiment.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "lowrank/compress.hpp"
#include "lowrank/lowrank.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool_executor.hpp"
#include "runtime/trace.hpp"
#include "ulv/hss_solve_tasks.hpp"
#include "ulv/hss_ulv.hpp"
#include "ulv/hss_ulv_tasks.hpp"
