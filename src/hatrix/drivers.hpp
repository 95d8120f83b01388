#pragma once
/// \file drivers.hpp
/// \brief Top-level drivers for the three systems the paper compares.
///
/// * HATRIX-DTD  = HSS-ULV x asynchronous DTD runtime x row-cyclic
/// * STRUMPACK   = HSS-ULV x fork-join (barrier per level) x block-cyclic
/// * LORAPO      = BLR tile Cholesky x DTD runtime x 2D block-cyclic
/// * DPLASMA     = dense tile Cholesky x DTD runtime x 2D block-cyclic
///
/// `run_simulated` replays the real task DAG of the chosen system through
/// the discrete-event cluster model (the repo's Fugaku substitution);
/// the benches drive it to regenerate Figs. 9-12 and Table 1.

#include <cstdint>
#include <string>

#include "distsim/des.hpp"

namespace hatrix::driver {

/// Which of the compared implementations to model. HatrixPTG is the paper's
/// suggested evolution (conclusion / Sec. 4.2): same algorithm and
/// distribution as HATRIX-DTD, but PTG-style local-only task generation.
enum class System { HatrixDTD, HatrixPTG, StrumpackSim, LorapoSim, DenseDplasmaSim };

/// Display name ("HATRIX-DTD", "HATRIX-PTG", "STRUMPACK", "LORAPO", "DPLASMA").
std::string system_name(System s);

/// One simulated distributed factorization run.
struct SimExperiment {
  la::index_t n = 16384;          ///< problem size
  la::index_t leaf_size = 256;    ///< HSS leaf / BLR-dense tile size
  la::index_t rank = 100;         ///< max rank (HSS) / tile rank (BLR)
  int nodes = 2;                  ///< processes (1 per node, as the paper)
  int cores_per_node = 48;        ///< Fugaku A64FX
  double gflops_per_core = 40.0;  ///< sustained per-core rate (A64FX-like)
  distsim::NetworkModel network;  ///< TofuD-like defaults
  distsim::OverheadModel overhead;
};

/// Observables shared by Figs. 9-12 and Table 1.
struct SimOutcome {
  double factor_time = 0.0;          ///< simulated makespan (s)
  double compute_per_worker = 0.0;   ///< Fig. 10 "COMPUTE TASK TIME"
  double overhead_per_worker = 0.0;  ///< Fig. 10 "RUNTIME OVERHEAD"
  double mpi_per_process = 0.0;      ///< Fig. 10b "MPI TIME" (per rank)
  std::int64_t tasks = 0;
  std::int64_t messages = 0;
  std::int64_t comm_bytes = 0;
  double flops = 0.0;                ///< modeled compute flops of the DAG
};

/// Build the system's costing DAG at the requested scale (rank skeletons,
/// no numerical data), map it with the system's distribution policy, and
/// run the discrete-event simulation.
SimOutcome run_simulated(System sys, const SimExperiment& cfg);

/// One real (non-simulated) shared-memory construction run: build the HSS
/// form of a kernel matrix through the guarded, task-parallel builder, then
/// factorize it with HSS-ULV. The compress-vs-factor split this reports is
/// what bench_construction sweeps over worker counts.
struct ConstructionExperiment {
  std::string kernel = "yukawa";   ///< kernel name (kernels::make_kernel)
  la::index_t n = 8192;            ///< problem size
  la::index_t leaf_size = 256;     ///< HSS leaf block size
  la::index_t max_rank = 80;       ///< rank cap for every basis
  double tol = 0.0;                ///< truncation tolerance (0: rank-only)
  la::index_t sample_cols = 512;   ///< initial per-node column sample
  double guard_tol = 1e-4;         ///< accuracy-guard tolerance (0: off)
  la::index_t max_sample_cols = 0; ///< guard growth cap (0: uncapped)
  int workers = 1;                 ///< construction/factorization workers
  std::uint64_t seed = 42;         ///< sampling seed
  bool verify_dag = false;         ///< statically verify both DAGs before running
  bool analyze_dag = false;        ///< run the dataflow analyzer on both DAGs
  bool early_release = false;      ///< free retired blocks at their last use
};

/// Observables of one construction run.
struct ConstructionOutcome {
  double build_seconds = 0.0;      ///< task-parallel construction wall time
  double factor_seconds = 0.0;     ///< task-parallel ULV factorization wall time
  double solve_error = 0.0;        ///< Eq. 19 solve error on a random rhs
  la::index_t rank_used = 0;       ///< largest basis rank in the built matrix
  la::index_t max_samples = 0;     ///< largest per-node column sample the guard grew to
  la::index_t guard_growths = 0;   ///< guard-triggered growth rounds (all nodes)
  la::index_t rank_escapes = 0;    ///< guard rank-cap escalations past max_rank
  double worst_residual = 0.0;     ///< largest accepted guard probe residual
  std::int64_t build_tasks = 0;    ///< construction DAG size
  std::int64_t factor_tasks = 0;   ///< factorization DAG size
  std::int64_t peak_matrix_bytes = 0;   ///< measured matrix-allocation high water
  std::int64_t static_peak_bytes = 0;   ///< analyzer serial-schedule peak bound (0: analyzer off)
  double analyze_seconds = 0.0;         ///< dataflow-analysis wall time, both DAGs (0: off)
};

/// Run one construction experiment. Throws fmt::BasisUnderResolvedError if
/// the guard cap is hit (see hss_builder.hpp).
ConstructionOutcome run_construction(const ConstructionExperiment& cfg);

/// One solve-throughput run: factorize once, then stream `solves` right-hand
/// sides through the shared, immutable factorization in panels of `batch`
/// columns, split across `clients` concurrent threads (each solving whole
/// panels; no locking anywhere — HSSULV::solve is const and race-free).
/// When `compare_oracle` is set, the same workload additionally runs through
/// the per-column oracle (HSSULV::solve_columnwise) so the blocked path's
/// speedup and bit-identity can be reported.
struct SolveThroughputExperiment {
  std::string kernel = "yukawa";   ///< kernel name (kernels::make_kernel)
  la::index_t n = 2048;            ///< problem size
  la::index_t leaf_size = 256;     ///< HSS leaf block size
  la::index_t max_rank = 60;       ///< rank cap for every basis
  la::index_t sample_cols = 256;   ///< initial per-node column sample (0: exact)
  double guard_tol = 1e-4;         ///< accuracy-guard tolerance (0: off)
  std::uint64_t seed = 42;         ///< sampling / RHS seed
  la::index_t batch = 16;          ///< RHS panel width per solve call
  int clients = 1;                 ///< concurrent solver threads
  /// Requested RHS columns (all clients). Rounded up to whole panels per
  /// client, batch × clients × ceil(solves / (batch × clients)), so every
  /// client gets the same number of full panels and none sits idle.
  la::index_t solves = 64;
  bool compare_oracle = true;      ///< also time the column-loop oracle
};

/// Each timed pass of a solve-throughput run (every client through all its
/// panels) repeats until this much wall time has accumulated, and at least
/// 5 times; the outcome reports the median pass and its quartiles.
inline constexpr double kSolveThroughputMinSeconds = 0.5;

/// Observables of one solve-throughput run.
struct SolveThroughputOutcome {
  double build_seconds = 0.0;      ///< HSS construction wall time
  double factor_seconds = 0.0;     ///< ULV factorization wall time
  double blocked_seconds = 0.0;    ///< median pass wall time, blocked path
  la::index_t solved_columns = 0;  ///< RHS columns solved per pass: `solves`
                                   ///< rounded up to whole panels per client
  double oracle_seconds = 0.0;     ///< median pass wall time, column-loop oracle
                                   ///< (0: skipped)
  int passes = 0;                  ///< timed passes of the blocked path
  double solves_per_second = 0.0;  ///< solved columns / median blocked pass
  double solves_per_second_q1 = 0.0;  ///< the same at the slower quartile pass
  double solves_per_second_q3 = 0.0;  ///< the same at the faster quartile pass
  double speedup_vs_oracle = 0.0;  ///< oracle_seconds / blocked_seconds (0: skipped)
  double max_col_diff = 0.0;       ///< max |blocked - oracle| (bit-identity: 0)
  double solve_error = 0.0;        ///< Eq. 19 relative error of one solved column
  la::index_t rank_used = 0;       ///< largest basis rank in the built matrix
};

/// Run one solve-throughput experiment.
SolveThroughputOutcome run_solve_throughput(const SolveThroughputExperiment& cfg);

}  // namespace hatrix::driver
