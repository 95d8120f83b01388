// Micro-benchmarks of the dense kernels behind every factorization, plus
// the cost-model calibration data (the sustained flop rate the simulator's
// CostModel::calibrated() would pick on this host), plus the kernel-matrix
// fill rate (Mentries/s) of the vectorized Green's-function loops that
// every HSS build reads its entries through. Self-timed — each case runs
// five timed batches and reports the median batch — and the results land
// in BENCH_linalg.json next to the solve-throughput numbers so kernel
// regressions show up in version control.
//
//   ./bench_micro_linalg [--min-time 0.2] [--json BENCH_linalg.json] [--csv]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "geometry/domain.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "lowrank/compress.hpp"
#include "ulv/ulv_common.hpp"

namespace {

using namespace hatrix;
using la::Matrix;

struct Case {
  std::string name;
  la::index_t n = 0;
  std::string shape;  ///< full shape where `n` alone does not name it
  double seconds_per_iter = 0.0;
  std::int64_t iterations = 0;
  double gflops = 0.0;  ///< 0 when no flop count applies
  double mentries_per_s = 0.0;  ///< kernel-matrix entries per second / 1e6
};

/// Run `body` in 5 timed batches of about `min_time` / 5 seconds each (at
/// least one iteration per batch) and report the median batch's seconds
/// per iteration. Unlike a mean over all iterations, the median ignores a
/// batch slowed by a preempted core or a noisy neighbour.
Case timed(const std::string& name, la::index_t n, double flops_per_iter,
           double min_time, const std::function<void()>& body,
           const std::string& shape = "") {
  constexpr int kBatches = 5;
  body();  // warm-up (first touch, page faults)
  std::vector<double> per_iter;
  std::int64_t iters = 0;
  for (int b = 0; b < kBatches; ++b) {
    WallTimer timer;
    std::int64_t batch_iters = 0;
    do {
      body();
      ++batch_iters;
    } while (timer.seconds() < min_time / kBatches && batch_iters < 200000);
    per_iter.push_back(timer.seconds() / static_cast<double>(batch_iters));
    iters += batch_iters;
  }
  std::sort(per_iter.begin(), per_iter.end());
  Case c;
  c.name = name;
  c.n = n;
  c.shape = shape;
  c.iterations = iters;
  c.seconds_per_iter = per_iter[kBatches / 2];
  if (flops_per_iter > 0.0) c.gflops = flops_per_iter / c.seconds_per_iter / 1e9;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double min_time = cli.get_double("min-time", 0.2);
  const std::string json_path = cli.get_string("json", "BENCH_linalg.json");
  const bool csv = cli.has("csv");
  cli.reject_unknown();

  std::vector<Case> cases;

  for (la::index_t n : {64, 128, 256}) {
    Rng rng(1);
    Matrix a = Matrix::random_normal(rng, n, n);
    Matrix b = Matrix::random_normal(rng, n, n);
    Matrix c(n, n);
    cases.push_back(timed("gemm", n, 2.0 * n * n * n, min_time, [&] {
      la::gemm(1.0, a.view(), la::Trans::No, b.view(), la::Trans::No, 0.0, c.view());
    }));
  }

  // Tall-skinny panel products: the m x r (r = rank) basis updates that
  // dominate the HSS build and ULV sweeps. Small inner dimension, so these
  // measure the packing overhead the square cases amortize away.
  for (la::index_t m : {1024, 4096}) {
    const la::index_t r = 40, k = 40;
    Rng rng(7);
    Matrix a = Matrix::random_normal(rng, m, k);
    Matrix b = Matrix::random_normal(rng, k, r);
    Matrix c(m, r);
    cases.push_back(timed("gemm_tall", m, 2.0 * m * r * k, min_time, [&] {
      la::gemm(1.0, a.view(), la::Trans::No, b.view(), la::Trans::No, 0.0, c.view());
    }));
  }

  for (la::index_t n : {64, 128, 256, 512}) {
    Rng rng(2);
    Matrix a = Matrix::random_spd(rng, n);
    cases.push_back(timed("potrf", n, n * n * n / 3.0, min_time, [&] {
      Matrix work = Matrix::from_view(a.view());
      la::potrf(work.view());
    }));
  }

  // syrk: the Schur-complement update of every partial factorization.
  for (la::index_t n : {64, 128, 256}) {
    Rng rng(10);
    Matrix a = Matrix::random_normal(rng, n, n);
    Matrix c(n, n);
    cases.push_back(timed("syrk", n, 2.0 * n * n * n, min_time, [&] {
      la::syrk(1.0, a.view(), la::Trans::No, 0.0, c.view());
    }));
  }

  for (la::index_t n : {128, 256, 512}) {
    Rng rng(3);
    Matrix a = Matrix::random_spd(rng, n);
    la::potrf(a.view());
    Matrix b = Matrix::random_normal(rng, n, n);
    cases.push_back(timed("trsm", n, static_cast<double>(n) * n * n, min_time, [&] {
      Matrix x = Matrix::from_view(b.view());
      la::trsm(la::Side::Left, la::UpLo::Lower, la::Trans::No, la::Diag::NonUnit,
               1.0, a.view(), x.view());
    }));
  }

  // The QR family at the shapes the solver calls (plus the original wide
  // pivoted cases), rated by LAPACK's classical Householder counts: a
  // rank-k truncated pivoted QR of m x n costs 4mnk - 2(m+n)k² + 4k³/3 and
  // forming its m x k Q another 2mk² - 2k³/3.
  struct PivotedShape {
    la::index_t m, n, cap;
  };
  for (const PivotedShape& s : {PivotedShape{128, 512, 32}, PivotedShape{256, 1024, 64},
                                PivotedShape{512, 256, 80}, PivotedShape{3840, 640, 640}}) {
    const la::index_t m = s.m, n = s.n, cap = s.cap;
    Rng rng(4);
    Matrix a = Matrix::random_normal(rng, m, n);
    const double k = static_cast<double>(cap);
    const double flops = 4.0 * m * n * k - 2.0 * (m + n) * k * k + 4.0 * k * k * k / 3.0 +
                         2.0 * m * k * k - 2.0 * k * k * k / 3.0;
    cases.push_back(timed("pivoted_qr", m, flops, min_time,
                          [&] { auto f = la::pivoted_qr(a.view(), cap, 0.0); },
                          std::to_string(m) + "x" + std::to_string(n) + " r" +
                              std::to_string(cap)));
  }
  {
    // Economy QR (geqrf + orgqr): 4mn² - 4n³/3.
    const la::index_t m = 256, n = 80;
    Rng rng(11);
    Matrix a = Matrix::random_normal(rng, m, n);
    cases.push_back(timed("qr", m, 4.0 * m * n * n - 4.0 * n * n * n / 3.0, min_time,
                          [&] { auto f = la::qr(a.view()); },
                          std::to_string(m) + "x" + std::to_string(n)));
  }
  // Complement of an orthonormal m x k basis, as every ULV node forms it:
  // geqrf 2k²(m - k/3) plus k reflectors applied to m - k columns,
  // (4mk - 2k²)(m - k).
  for (la::index_t m : {256, 160}) {
    const la::index_t k = 80;
    Rng rng(12);
    Matrix u = la::qr(Matrix::random_normal(rng, m, k).view()).q;
    const double flops = 2.0 * k * k * (m - k / 3.0) + (4.0 * m * k - 2.0 * k * k) * (m - k);
    cases.push_back(timed("orth_complement", m, flops, min_time,
                          [&] { Matrix c = la::orth_complement(u.view()); },
                          std::to_string(m) + "x" + std::to_string(k)));
  }
  // The rest of a ULV node at the same shapes: the Eq. 11 right-side trsm
  // of the k x (m - k) SR panel, k (m - k)² flops, and the whole Eq. 10-12
  // partial factorization (potrf of RR, that trsm, the syrk into SS),
  // (m - k)³/3 + k (m - k)² + k² (m - k) flops.
  for (la::index_t m : {256, 160}) {
    const la::index_t k = 80, r = m - k;
    const std::string shape = std::to_string(m) + "x" + std::to_string(k);
    Rng rng(13);
    Matrix l = Matrix::random_spd(rng, r);
    la::potrf(l.view());
    const Matrix sr = Matrix::random_normal(rng, k, r);
    cases.push_back(timed("trsm_right", m, static_cast<double>(k) * r * r, min_time, [&] {
      Matrix x = Matrix::from_view(sr.view());
      la::trsm(la::Side::Right, la::UpLo::Lower, la::Trans::Yes, la::Diag::NonUnit, 1.0,
               l.view(), x.view());
    }, shape));
    const Matrix d = Matrix::random_spd(rng, m);
    const Matrix u = la::qr(Matrix::random_normal(rng, m, k).view()).q;
    ulv::DiagProductResult rot = ulv::diag_product(d.view(), u.view());
    const double flops = r * r * r / 3.0 + static_cast<double>(k) * r * r +
                         static_cast<double>(k) * k * r;
    // Each call factors fresh copies of RR, SR and SS; the complement, which
    // the call only moves into the factor, is passed through and taken back.
    cases.push_back(timed("partial_factor", m, flops, min_time, [&] {
      auto res = ulv::partial_factor_rotated({std::move(rot.q_comp), rot.rr, rot.sr, rot.ss},
                                             1, 0);
      rot.q_comp = std::move(res.factor.q_comp);
    }, shape));
  }

  for (la::index_t n : {32, 64, 128}) {
    Rng rng(5);
    Matrix a = Matrix::random_normal(rng, n, n);
    cases.push_back(
        timed("svd", n, 0.0, min_time, [&] { auto f = la::svd(a.view()); }));
  }

  for (la::index_t n : {256, 1024}) {
    Rng rng(6);
    lr::LowRank a(Matrix::random_normal(rng, n, 32), Matrix::random_normal(rng, n, 32));
    lr::LowRank b(Matrix::random_normal(rng, n, 32), Matrix::random_normal(rng, n, 32));
    cases.push_back(timed("lr_add_round", n, 0.0, min_time, [&] {
      auto s = lr::lr_add_round(1.0, a, -1.0, b, 32, 1e-10);
    }));
  }

  // Kernel-matrix fill: a 256 x 768 block (leaf x leaf + samples at the
  // e2e Yukawa shape) of the paper kernels on a 2D grid, through
  // KernelMatrix::fill_block as the HSS builder calls it.
  for (const char* name : {"yukawa", "matern"}) {
    const la::index_t m = 256, n = 768;
    auto kernel = kernels::make_kernel(name);
    const kernels::KernelMatrix km(*kernel, geom::grid2d(m + n).points);
    Matrix out(m, n);
    Case c = timed(std::string("kernel_fill_") + name, m, 0.0, min_time,
                   [&] { km.fill_block(0, m, out.view()); },
                   std::to_string(m) + "x" + std::to_string(n));
    c.mentries_per_s = static_cast<double>(m * n) / c.seconds_per_iter / 1e6;
    cases.push_back(c);
  }

  TextTable table({"kernel", "n", "shape", "us/iter", "iters", "GFLOP/s", "Mentries/s"});
  BenchJson json("micro_linalg");
  for (const auto& c : cases) {
    table.add_row({c.name, std::to_string(c.n), c.shape.empty() ? "-" : c.shape,
                   fmt_fixed(c.seconds_per_iter * 1e6, 1),
                   std::to_string(c.iterations),
                   c.gflops > 0.0 ? fmt_fixed(c.gflops, 2) : "-",
                   c.mentries_per_s > 0.0 ? fmt_fixed(c.mentries_per_s, 1) : "-"});
    auto& row = json.row().add("kernel", c.name).add("n", static_cast<std::int64_t>(c.n));
    if (!c.shape.empty()) row.add("shape", c.shape);
    row.add("seconds_per_iter", c.seconds_per_iter)
        .add("iterations", c.iterations)
        .add("gflops", c.gflops);
    if (c.mentries_per_s > 0.0) row.add("mentries_per_s", c.mentries_per_s);
  }
  std::printf("%s\n", csv ? table.to_csv().c_str() : table.to_string().c_str());
  if (!json_path.empty()) {
    if (json.write(json_path))
      std::printf("wrote %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
  }
  return 0;
}
