// Tests for the top-level drivers: simulated system runs (shapes of
// Figs. 9/11/12 at reduced scale) and the real accuracy experiments
// (Table 2 at reduced N).
#include <gtest/gtest.h>

#include <cmath>

#include "hatrix/drivers.hpp"
#include "hatrix/experiment.hpp"

namespace hatrix::driver {
namespace {

SimExperiment small_exp(la::index_t n, int nodes) {
  SimExperiment e;
  e.n = n;
  e.leaf_size = 256;
  e.rank = 60;
  e.nodes = nodes;
  e.cores_per_node = 8;
  return e;
}

TEST(Drivers, SystemNames) {
  EXPECT_EQ(system_name(System::HatrixDTD), "HATRIX-DTD");
  EXPECT_EQ(system_name(System::StrumpackSim), "STRUMPACK");
  EXPECT_EQ(system_name(System::LorapoSim), "LORAPO");
  EXPECT_EQ(system_name(System::DenseDplasmaSim), "DPLASMA");
}

TEST(Drivers, AllSystemsProduceSaneOutcomes) {
  for (System s : {System::HatrixDTD, System::StrumpackSim, System::LorapoSim,
                   System::DenseDplasmaSim}) {
    auto out = run_simulated(s, small_exp(8192, 4));
    EXPECT_GT(out.factor_time, 0.0) << system_name(s);
    EXPECT_GT(out.tasks, 0) << system_name(s);
    EXPECT_GT(out.flops, 0.0) << system_name(s);
    EXPECT_GE(out.overhead_per_worker, 0.0) << system_name(s);
  }
}

TEST(Drivers, HssFlopsLinearLorapoQuadraticDenseCubic) {
  // The complexity column of Table 1, measured from the modeled DAGs.
  auto exponent = [](System s, la::index_t tile) {
    SimExperiment e1 = small_exp(16384, 2), e2 = small_exp(65536, 2);
    e1.leaf_size = e2.leaf_size = tile;
    e1.rank = e2.rank = 50;
    auto o1 = run_simulated(s, e1);
    auto o2 = run_simulated(s, e2);
    return std::log(o2.flops / o1.flops) / std::log(4.0);
  };
  const double hss = exponent(System::HatrixDTD, 256);
  const double lorapo = exponent(System::LorapoSim, 1024);
  const double dense = exponent(System::DenseDplasmaSim, 2048);
  EXPECT_LT(hss, 1.35);
  // BLR sits strictly between HSS and dense; its exact exponent depends on
  // how the tile size is tuned with N (the paper tunes it per problem).
  EXPECT_GT(lorapo, 1.6);
  EXPECT_LT(lorapo, 2.95);
  EXPECT_GT(dense, 2.6);
  EXPECT_LT(hss, lorapo);
  EXPECT_LT(lorapo, dense);
}

TEST(Drivers, WeakScalingHatrixBeatsBaselinesAtScale) {
  // Fig. 9's headline: at high node counts HATRIX-DTD is fastest.
  const int nodes = 64;
  const la::index_t n = 2048 * nodes;
  SimExperiment h = small_exp(n, nodes);
  h.cores_per_node = 48;
  auto hatrix = run_simulated(System::HatrixDTD, h);
  auto strumpack = run_simulated(System::StrumpackSim, h);
  SimExperiment l = h;
  l.leaf_size = 2048;
  l.rank = 512;
  auto lorapo = run_simulated(System::LorapoSim, l);
  EXPECT_LT(hatrix.factor_time, strumpack.factor_time);
  EXPECT_LT(hatrix.factor_time, lorapo.factor_time);
}

TEST(Drivers, StrumpackCatchesUpAtLargeNOnFixedNodes) {
  // Fig. 11 / Sec. 5.4: at a fixed node count, HATRIX's time grows O(N)
  // because its DTD discovery overhead follows the task count, while
  // STRUMPACK stays roughly flat (communication-bound) — so STRUMPACK's
  // relative position improves as N grows.
  SimExperiment e = small_exp(8192, 64);
  e.cores_per_node = 48;
  auto hatrix = run_simulated(System::HatrixDTD, e);
  auto strumpack = run_simulated(System::StrumpackSim, e);
  SimExperiment big = small_exp(262144, 64);
  big.cores_per_node = 48;
  auto hatrix_big = run_simulated(System::HatrixDTD, big);
  auto strumpack_big = run_simulated(System::StrumpackSim, big);
  const double small_ratio = strumpack.factor_time / hatrix.factor_time;
  const double big_ratio = strumpack_big.factor_time / hatrix_big.factor_time;
  EXPECT_LT(big_ratio, small_ratio);
  // And STRUMPACK's absolute time stays near-flat across a 32x size sweep.
  EXPECT_LT(strumpack_big.factor_time, 4.0 * strumpack.factor_time);
}

TEST(Drivers, HatrixComputePerWorkerFlatUnderWeakScaling) {
  double first = -1.0;
  for (int nodes : {2, 8, 32}) {
    auto out = run_simulated(System::HatrixDTD, small_exp(2048 * nodes, nodes));
    if (first < 0)
      first = out.compute_per_worker;
    else
      EXPECT_NEAR(out.compute_per_worker, first, 0.35 * first);
  }
}

TEST(Drivers, StrumpackMpiTimeGrowsWithNodes) {
  double prev = -1.0;
  for (int nodes : {2, 8, 32}) {
    auto out = run_simulated(System::StrumpackSim, small_exp(2048 * nodes, nodes));
    EXPECT_GT(out.mpi_per_process, prev);
    prev = out.mpi_per_process;
  }
}

TEST(Accuracy, HssTable2RowShape) {
  AccuracySetup s;
  s.kernel = "yukawa";
  s.n = 2048;
  s.leaf_size = 256;
  s.max_rank = 60;
  auto out = hss_accuracy(s);
  EXPECT_LT(out.construct_error, 1e-5);
  EXPECT_LT(out.solve_error, 1e-10);
  EXPECT_LE(out.rank_used, 60);
  EXPECT_GT(out.compressed_bytes, 0);
}

TEST(Accuracy, HssRankImprovesConstructionError) {
  AccuracySetup lo, hi;
  lo.kernel = hi.kernel = "matern";
  lo.n = hi.n = 2048;
  lo.leaf_size = hi.leaf_size = 256;
  lo.max_rank = 20;
  hi.max_rank = 80;
  auto out_lo = hss_accuracy(lo);
  auto out_hi = hss_accuracy(hi);
  EXPECT_LT(out_hi.construct_error, out_lo.construct_error);
}

TEST(Accuracy, BlrAdaptiveRankMeetsTolerance) {
  AccuracySetup s;
  s.kernel = "yukawa";
  s.n = 2048;
  s.leaf_size = 512;
  s.max_rank = 512;
  s.tol = 1e-8;  // LORAPO's construction tolerance from Table 2
  auto out = blr_accuracy(s);
  EXPECT_LT(out.construct_error, 1e-6);
  EXPECT_LT(out.solve_error, 1e-6);
  EXPECT_LT(out.rank_used, 512);  // adaptivity engaged
}

TEST(Drivers, SolveThroughputSplitsWholePanelsAcrossClients) {
  // 64 requested columns in 64-wide panels over 4 clients round up to one
  // full panel per client: 256 columns solved, not one panel and 3 idle
  // clients.
  SolveThroughputExperiment cfg;
  cfg.n = 512;
  cfg.leaf_size = 128;
  cfg.max_rank = 30;
  cfg.sample_cols = 128;
  cfg.batch = 64;
  cfg.clients = 4;
  cfg.solves = 64;
  cfg.compare_oracle = false;
  const auto out = run_solve_throughput(cfg);
  EXPECT_EQ(out.solved_columns, 256);
}

}  // namespace
}  // namespace hatrix::driver
