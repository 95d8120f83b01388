// Kernel-layer conformance suite: the blocked kernels behind la::gemm,
// la::syrk, la::trsm and la::potrf are checked against the retained naive
// reference kernels `la::ref::` across the full option space — all
// Trans/Side/UpLo/Diag combinations, odd and power-of-two sizes, zero
// dimensions, and non-contiguous (strided) views, in FP64 (the only
// precision the kernels compute in). The blocked kernels reorder
// accumulation, so comparisons are tolerance-based (scaled by the inner
// dimension and the machine epsilon), not bitwise. Bit-identity is the
// per-column contract checked by the *OneColumn* tests here and, end to
// end, by test_solve_blocked and test_executor_conformance.
//
// Also calls the kernels from several threads at once (runs under TSan via
// the `concurrency` label): the blocked gemm packs into thread_local
// buffers, and concurrent calls on shared read-only inputs must stay
// data-race-free and match the oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <utility>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace hatrix {
namespace {

using la::ConstMatrixView;
using la::Diag;
using la::index_t;
using la::Matrix;
using la::MatrixView;
using la::Side;
using la::Trans;
using la::UpLo;

Matrix random_matrix(index_t r, index_t c, Rng& rng) {
  Matrix m(r, c);
  for (index_t j = 0; j < c; ++j)
    for (index_t i = 0; i < r; ++i) m(i, j) = rng.normal();
  return m;
}

/// Well-conditioned triangular factor: unit-scale off-diagonal entries with
/// a dominant diagonal, so trsm solves stay far from overflow.
Matrix random_triangular(index_t n, UpLo uplo, Rng& rng) {
  Matrix t(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool in_tri = uplo == UpLo::Lower ? i >= j : i <= j;
      if (!in_tri) continue;
      t(i, j) = i == j ? 4.0 + rng.uniform() : 0.25 * rng.normal();
    }
  return t;
}

/// Max |a - b| over the matrix.
template <typename ViewA, typename ViewB>
double max_diff(ViewA a, ViewB b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  double d = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      d = std::max(d, std::abs(static_cast<double>(a(i, j)) -
                               static_cast<double>(b(i, j))));
  return d;
}

template <typename View>
double max_abs(View a) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      m = std::max(m, std::abs(static_cast<double>(a(i, j))));
  return m;
}

/// Accumulation-order-aware tolerance: eps * inner-dimension * magnitude,
/// with generous constant headroom (the blocked kernels and the oracle may
/// differ by many reassociations but never by more than O(k) rounding steps).
double tolerance(index_t inner, double magnitude, double eps) {
  return 64.0 * static_cast<double>(std::max<index_t>(inner, 1)) * eps *
         (magnitude + 1.0);
}

constexpr double kEps64 = std::numeric_limits<double>::epsilon();

// ---------------------------------------------------------------------------
// gemm

struct GemmShape {
  index_t m, n, k;
};

const std::vector<GemmShape>& gemm_shapes() {
  // Odd sizes straddle every micro-kernel edge case (partial MR/NR tiles,
  // partial KC strips); zero dims must be clean no-ops; the tall-skinny
  // shapes mirror the low-rank panel products that dominate the solver.
  static const std::vector<GemmShape> shapes = {
      {0, 5, 3},  {5, 0, 3},   {5, 3, 0},   {1, 1, 1},   {2, 3, 4},
      {7, 5, 9},  {17, 13, 11}, {33, 33, 33}, {64, 64, 64}, {65, 63, 67},
      {129, 40, 17}, {200, 8, 40}, {8, 200, 40}};
  return shapes;
}

TEST(LinalgConformance, GemmDoubleAllTransCombos) {
  Rng rng(31);
  for (const auto& s : gemm_shapes()) {
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        const Matrix a = ta == Trans::No ? random_matrix(s.m, s.k, rng)
                                         : random_matrix(s.k, s.m, rng);
        const Matrix b = tb == Trans::No ? random_matrix(s.k, s.n, rng)
                                         : random_matrix(s.n, s.k, rng);
        const Matrix c0 = random_matrix(s.m, s.n, rng);
        for (auto [alpha, beta] : {std::pair{1.0, 0.0},
                                   std::pair{-0.5, 2.0},
                                   std::pair{0.0, 1.0}}) {
          Matrix c_ref = c0;
          la::ref::gemm(alpha, a.view(), ta, b.view(), tb, beta, c_ref.view());
          Matrix c_got = c0;
          la::gemm(alpha, a.view(), ta, b.view(), tb, beta, c_got.view());
          const double tol = tolerance(s.k, max_abs(c_ref.view()), kEps64);
          EXPECT_LE(max_diff(c_got.view(), c_ref.view()), tol)
              << "gemm d " << s.m << "x" << s.n << "x" << s.k
              << " ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes)
              << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

TEST(LinalgConformance, GemmNonContiguousViews) {
  // Operands and destination are interior blocks of larger matrices, so
  // every view has ld > rows — the packing paths must honor the stride.
  Rng rng(33);
  const index_t m = 37, n = 29, k = 41, pad = 11;
  Matrix abuf = random_matrix(m + pad, k + pad, rng);
  Matrix bbuf = random_matrix(k + pad, n + pad, rng);
  Matrix cbuf = random_matrix(m + pad, n + pad, rng);
  Matrix cref = cbuf;
  const ConstMatrixView a = abuf.view().block(3, 5, m, k);
  const ConstMatrixView b = bbuf.view().block(7, 2, k, n);
  la::ref::gemm(1.5, a, Trans::No, b, Trans::No, -0.5,
                cref.view().block(4, 6, m, n));
  la::gemm(1.5, a, Trans::No, b, Trans::No, -0.5,
           cbuf.view().block(4, 6, m, n));
  // The whole buffer must match: the kernel may not write outside its block.
  EXPECT_LE(max_diff(cbuf.view(), cref.view()),
            tolerance(k, max_abs(cref.view()), kEps64))
      << "gemm strided";
}

// ---------------------------------------------------------------------------
// One-column calls: a single-RHS solve is the one-column panel solve, so
// column j of an n-column gemm/trsm must equal the one-column call on
// column j bit for bit (and a one-column gemm must equal gemv), whatever
// the operand strides. Checked on the blocked kernels and on the la::ref
// oracle, which both carry the determinism invariant (blas.cpp).

using GemmFn = void (*)(double, ConstMatrixView, Trans, ConstMatrixView, Trans,
                        double, MatrixView);
using TrsmFn = void (*)(Side, UpLo, Trans, Diag, double, ConstMatrixView,
                        MatrixView);

TEST(LinalgConformance, GemmOneColumnMatchesPanelColumnsBitwise) {
  Rng rng(41);
  const index_t m = 23, k = 31, pad = 5;
  for (auto [name, gemm] : {std::pair<const char*, GemmFn>{"ref", la::ref::gemm},
                            std::pair<const char*, GemmFn>{"blocked", la::gemm}}) {
    // la::gemv is the blocked one-column gemm; the oracle has no gemv.
    const bool with_gemv = gemm == static_cast<GemmFn>(la::gemm);
    for (Trans ta : {Trans::No, Trans::Yes}) {
      const index_t ar = ta == Trans::No ? m : k, ac = ta == Trans::No ? k : m;
      const Matrix abuf = random_matrix(ar + pad, ac + pad, rng);
      const ConstMatrixView a = abuf.view().block(2, 3, ar, ac);
      for (index_t n : {1, 2, 6, 7, 13}) {
        const Matrix bbuf = random_matrix(k + pad, n + pad, rng);
        const ConstMatrixView b = bbuf.view().block(1, 2, k, n);
        const Matrix c0 = random_matrix(m + pad, n + pad, rng);
        Matrix panel = c0;
        gemm(1.25, a, ta, b, Trans::No, -0.5, panel.view().block(4, 1, m, n));
        int mismatches = 0;
        for (index_t j = 0; j < n; ++j) {
          Matrix col = c0;
          gemm(1.25, a, ta, b.block(0, j, k, 1), Trans::No, -0.5,
               col.view().block(4, 1 + j, m, 1));
          std::vector<double> x(static_cast<std::size_t>(k));
          std::vector<double> y(static_cast<std::size_t>(m));
          for (index_t i = 0; i < k; ++i) x[static_cast<std::size_t>(i)] = b(i, j);
          for (index_t i = 0; i < m; ++i) y[static_cast<std::size_t>(i)] = c0(4 + i, 1 + j);
          if (with_gemv) la::gemv(1.25, a, ta, x.data(), -0.5, y.data());
          for (index_t i = 0; i < m; ++i) {
            const double v = col(4 + i, 1 + j);
            if (panel(4 + i, 1 + j) != v ||
                (with_gemv && y[static_cast<std::size_t>(i)] != v))
              ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << name << ": gemm ta=" << (ta == Trans::Yes)
                                 << " n=" << n;
      }
    }
  }
}

TEST(LinalgConformance, TrsmLeftOneColumnMatchesPanelColumnsBitwise) {
  // n = 70 spans two kTrsmBlock diagonal blocks, so the gemm update between
  // them is exercised too.
  Rng rng(42);
  const index_t nt = 70, pad = 5;
  for (auto [name, trsm] : {std::pair<const char*, TrsmFn>{"ref", la::ref::trsm},
                            std::pair<const char*, TrsmFn>{"blocked", la::trsm}}) {
    for (UpLo uplo : {UpLo::Lower, UpLo::Upper})
      for (Trans tr : {Trans::No, Trans::Yes}) {
        const Matrix t = random_triangular(nt, uplo, rng);
        for (index_t n : {1, 2, 6, 7, 13}) {
          const Matrix b0 = random_matrix(nt + pad, n + pad, rng);
          Matrix panel = b0;
          trsm(Side::Left, uplo, tr, Diag::NonUnit, 0.75, t.view(),
               panel.view().block(3, 2, nt, n));
          int mismatches = 0;
          for (index_t j = 0; j < n; ++j) {
            Matrix col = b0;
            trsm(Side::Left, uplo, tr, Diag::NonUnit, 0.75, t.view(),
                 col.view().block(3, 2 + j, nt, 1));
            for (index_t i = 0; i < nt; ++i)
              if (panel(3 + i, 2 + j) != col(3 + i, 2 + j)) ++mismatches;
          }
          EXPECT_EQ(mismatches, 0)
              << name << ": trsm uplo=" << (uplo == UpLo::Upper)
              << " trans=" << (tr == Trans::Yes) << " n=" << n;
        }
      }
  }
}

// ---------------------------------------------------------------------------
// syrk

TEST(LinalgConformance, SyrkBothTransBothPrecisions) {
  Rng rng(34);
  for (index_t n : {0, 1, 2, 7, 33, 65, 129}) {
    for (index_t k : {0, 1, 5, 40, 67}) {
      for (Trans tr : {Trans::No, Trans::Yes}) {
        const Matrix a = tr == Trans::No ? random_matrix(n, k, rng)
                                         : random_matrix(k, n, rng);
        const Matrix c0 = random_matrix(n, n, rng);
        Matrix c_ref = c0, c_got = c0;
        la::ref::syrk(1.0, a.view(), tr, 0.5, c_ref.view());
        la::syrk(1.0, a.view(), tr, 0.5, c_got.view());
        EXPECT_LE(max_diff(c_got.view(), c_ref.view()),
                  tolerance(k, max_abs(c_ref.view()), kEps64))
            << "syrk d n=" << n << " k=" << k
            << " trans=" << (tr == Trans::Yes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// trsm: all Side x UpLo x Trans x Diag combinations

TEST(LinalgConformance, TrsmAllSixteenCombos) {
  Rng rng(35);
  for (index_t n : {0, 1, 3, 17, 64, 65, 129}) {
    for (index_t w : {0, 1, 5, 40}) {
      for (Side side : {Side::Left, Side::Right}) {
        for (UpLo uplo : {UpLo::Lower, UpLo::Upper}) {
          const Matrix t = random_triangular(n, uplo, rng);
          const index_t br = side == Side::Left ? n : w;
          const index_t bc = side == Side::Left ? w : n;
          const Matrix b0 = random_matrix(br, bc, rng);
          for (Trans tr : {Trans::No, Trans::Yes}) {
            for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
              Matrix b_ref = b0, b_got = b0;
              la::ref::trsm(side, uplo, tr, dg, 1.25, t.view(), b_ref.view());
              la::trsm(side, uplo, tr, dg, 1.25, t.view(), b_got.view());
              EXPECT_LE(max_diff(b_got.view(), b_ref.view()),
                        tolerance(n, max_abs(b_ref.view()), kEps64))
                  << "trsm n=" << n << " w=" << w
                  << " side=" << (side == Side::Right)
                  << " uplo=" << (uplo == UpLo::Upper)
                  << " trans=" << (tr == Trans::Yes)
                  << " diag=" << (dg == Diag::Unit);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// potrf

TEST(LinalgConformance, PotrfAgainstUnblockedReference) {
  Rng rng(38);
  for (index_t n : {1, 2, 7, 33, 64, 65, 129, 200}) {
    // SPD by construction: B·Bᵀ + n·I keeps the condition number modest so
    // the two factorizations agree to working accuracy.
    const Matrix b = random_matrix(n, n, rng);
    Matrix a(n, n);
    la::ref::gemm(1.0, b.view(), Trans::No, b.view(), Trans::Yes, 0.0, a.view());
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

    Matrix l_ref = a, l_got = a;
    la::ref::potrf(l_ref.view());
    la::potrf(l_got.view());
    EXPECT_LE(max_diff(l_got.view(), l_ref.view()),
              tolerance(n, max_abs(l_ref.view()), kEps64))
        << "potrf n=" << n;
    // Strict upper triangle explicitly zeroed by both.
    for (index_t j = 1; j < n; ++j)
      for (index_t i = 0; i < j; ++i)
        EXPECT_EQ(l_got(i, j), 0.0) << "potrf upper not zeroed";
  }
}

TEST(LinalgConformance, PotrfThrowsOnIndefinite) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // negative pivot
  a(2, 2) = 1.0;
  EXPECT_THROW(la::potrf(a.view()), Error) << "potrf indefinite";
}

// ---------------------------------------------------------------------------
// Concurrent calls

TEST(LinalgConformance, ConcurrentKernelCallsMatchReference) {
  // Solver tasks call the kernels from every executor worker at once. The
  // blocked gemm (and the trsm/syrk/potrf built on it) packs into
  // thread_local buffers, so concurrent calls on shared read-only inputs
  // must not race (TSan) and must each match the oracle. n = 96 spans two
  // kTrsmBlock diagonal blocks, so the gemm panel updates run too.
  Rng rng(39);
  const index_t n = 96;
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const Matrix t = random_triangular(n, UpLo::Lower, rng);
  Matrix spd(n, n);
  la::ref::gemm(1.0, a.view(), Trans::No, a.view(), Trans::Yes, 0.0, spd.view());
  for (index_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);

  Matrix gemm_ref(n, n), syrk_ref(n, n);
  Matrix trsm_ref = b, potrf_ref = spd;
  la::ref::gemm(1.0, a.view(), Trans::No, b.view(), Trans::Yes, 0.0, gemm_ref.view());
  la::ref::syrk(1.0, a.view(), Trans::Yes, 0.0, syrk_ref.view());
  la::ref::trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, t.view(),
                trsm_ref.view());
  la::ref::potrf(potrf_ref.view());
  const auto within = [n](const Matrix& got, const Matrix& ref) {
    return max_diff(got.view(), ref.view()) <=
           tolerance(n, max_abs(ref.view()), kEps64);
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int it = 0; it < 10; ++it) {
        Matrix c(n, n), s(n, n);
        Matrix x = b, l = spd;
        la::gemm(1.0, a.view(), Trans::No, b.view(), Trans::Yes, 0.0, c.view());
        la::syrk(1.0, a.view(), Trans::Yes, 0.0, s.view());
        la::trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, t.view(),
                 x.view());
        la::potrf(l.view());
        const int bad = !within(c, gemm_ref) + !within(s, syrk_ref) +
                        !within(x, trsm_ref) + !within(l, potrf_ref);
        failures.fetch_add(bad, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hatrix
