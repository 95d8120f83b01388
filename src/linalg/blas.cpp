/// \file blas.cpp
/// \brief The dense FP64 kernels and their public entry points.
///
/// Three parts:
///
///   - the naive reference triple loops, the conformance oracle exposed as
///     `la::ref::` (trsm_naive also solves the Side::Left diagonal blocks
///     of the blocked trsm, one column of B at a time);
///   - the blocked kernels: a cache-blocked, packing GEBP gemm with a
///     register-tiled micro-kernel; trsm as 64-wide diagonal-block solves,
///     each followed by one gemm update of the unsolved part; syrk as one
///     gemm per 64-wide block column of the lower triangle; and
///     potrf_panel, the column panel of the blocked potrf in cholesky.cpp.
///     The composite kernels in cholesky.cpp and qr.cpp call them through
///     blas_detail.hpp;
///   - the public entry points, which check shapes and count flops before
///     calling the blocked kernels.
///
/// Column loops: the Side::Right trsm blocks and the potrf panel run down
/// contiguous column segments (sub_columns, four axpys per pass), never
/// across a row of a column-major matrix. A row walk reads one element per
/// column stride, so it neither stays in cache nor vectorizes.
///
/// Determinism invariant (the solve layer's panel/column bit-identity
/// depends on it): in every kernel here, the arithmetic performed for
/// column j of the output depends only on (m, k) and column j of the
/// inputs — never on how many other columns the call carries. The blocked
/// gemm keeps one accumulator per (i, j), visits l in ascending order
/// within each KC chunk, and applies chunks in ascending order, so a
/// one-column call and a panel call round identically.
///
/// This is a kernel TU: CMake compiles it with the kernel flags (-O3,
/// -march=native), which bench provenance rows report.

#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "linalg/blas_detail.hpp"

namespace hatrix::la {

Backend backend() noexcept { return Backend::Blocked; }

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::Blocked:
      return "blocked";
  }
  return "unknown";
}

namespace detail {

namespace {

index_t op_rows(ConstMatrixView a, Trans t) {
  return t == Trans::No ? a.rows : a.cols;
}
index_t op_cols(ConstMatrixView a, Trans t) {
  return t == Trans::No ? a.cols : a.rows;
}

void fill_impl(MatrixView a, double value) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) = value;
}

void scale_impl(MatrixView a, double alpha) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) *= alpha;
}

// ---------------------------------------------------------------------------
// Naive reference kernels (the original hand-rolled loops; la::ref).
// ---------------------------------------------------------------------------

void gemm_naive(double alpha, ConstMatrixView a, Trans ta,
                ConstMatrixView b, Trans tb, double beta, MatrixView c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(a, ta);
  if (beta == 0.0) {
    fill_impl(c, 0.0);
  } else if (beta != 1.0) {
    scale_impl(c, beta);
  }
  if (alpha == 0.0 || k == 0) return;

  // Column-major friendly loop orders; the A-no-trans cases stream down
  // columns of A and C.
  if (ta == Trans::No && tb == Trans::No) {
    for (index_t j = 0; j < n; ++j)
      for (index_t l = 0; l < k; ++l) {
        const double blj = alpha * b(l, j);
        if (blj == 0.0) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, l) * blj;
      }
  } else if (ta == Trans::No && tb == Trans::Yes) {
    for (index_t j = 0; j < n; ++j)
      for (index_t l = 0; l < k; ++l) {
        const double blj = alpha * b(j, l);
        if (blj == 0.0) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, l) * blj;
      }
  } else if (ta == Trans::Yes && tb == Trans::No) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (index_t l = 0; l < k; ++l) s += a(l, i) * b(l, j);
        c(i, j) += alpha * s;
      }
  } else {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (index_t l = 0; l < k; ++l) s += a(l, i) * b(j, l);
        c(i, j) += alpha * s;
      }
  }
}

void syrk_naive(double alpha, ConstMatrixView a, Trans trans,
                double beta, MatrixView c) {
  const index_t n = c.rows, k = op_cols(a, trans);
  if (beta == 0.0) {
    fill_impl(c, 0.0);
  } else if (beta != 1.0) {
    scale_impl(c, beta);
  }
  // Compute the lower triangle, then mirror. The mirror runs even for a
  // no-op update (alpha == 0 / k == 0): syrk's contract is that both
  // triangles of C hold the symmetric result on return.
  if (alpha != 0.0 && k != 0) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i < n; ++i) {
        double s = 0.0;
        if (trans == Trans::No) {
          for (index_t l = 0; l < k; ++l) s += a(i, l) * a(j, l);
        } else {
          for (index_t l = 0; l < k; ++l) s += a(l, i) * a(l, j);
        }
        c(i, j) += alpha * s;
      }
    }
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) c(j, i) = c(i, j);
}

void trsm_naive(Side side, UpLo uplo, Trans trans, Diag diag,
                double alpha, ConstMatrixView t, MatrixView b) {
  const index_t n = t.rows;
  if (alpha != 1.0) scale_impl(b, alpha);

  // Effective orientation: solving with op(T). Lower-no-trans and
  // upper-trans both resolve forward; the other two resolve backward.
  const bool lower = (uplo == UpLo::Lower);
  const bool forward = (lower == (trans == Trans::No));
  const bool unit = (diag == Diag::Unit);

  auto tval = [&](index_t i, index_t j) {
    return trans == Trans::No ? t(i, j) : t(j, i);
  };

  if (side == Side::Left) {
    // Solve op(T) X = B, column by column of B.
    for (index_t col = 0; col < b.cols; ++col) {
      if (forward) {
        for (index_t i = 0; i < n; ++i) {
          double s = b(i, col);
          for (index_t j = 0; j < i; ++j) s -= tval(i, j) * b(j, col);
          b(i, col) = unit ? s : s / tval(i, i);
        }
      } else {
        for (index_t i = n - 1; i >= 0; --i) {
          double s = b(i, col);
          for (index_t j = i + 1; j < n; ++j) s -= tval(i, j) * b(j, col);
          b(i, col) = unit ? s : s / tval(i, i);
        }
      }
    }
  } else {
    // Solve X op(T) = B, row by row of B: X(r,:) uses previously solved cols.
    for (index_t row = 0; row < b.rows; ++row) {
      if (forward) {
        // op(T) effectively lower => X columns resolve from last to first:
        // X(:,j) = (B(:,j) - sum_{l>j} X(:,l) op(T)(l,j)) / op(T)(j,j)
        for (index_t j = n - 1; j >= 0; --j) {
          double s = b(row, j);
          for (index_t l = j + 1; l < n; ++l) s -= b(row, l) * tval(l, j);
          b(row, j) = unit ? s : s / tval(j, j);
        }
      } else {
        for (index_t j = 0; j < n; ++j) {
          double s = b(row, j);
          for (index_t l = 0; l < j; ++l) s -= b(row, l) * tval(l, j);
          b(row, j) = unit ? s : s / tval(j, j);
        }
      }
    }
  }
}

/// Unblocked lower Cholesky (dpotf2-style), the reference factorization.
/// Does NOT touch the strict upper triangle — ref::potrf zeroes it.
void potrf_unblocked(MatrixView a) {
  const index_t n = a.rows;
  for (index_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (index_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    HATRIX_CHECK(d > 0.0, "matrix not positive definite (pivot " +
                              std::to_string(j) + ")");
    d = std::sqrt(d);
    a(j, j) = d;
    for (index_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (index_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / d;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked, packing kernels (the GEBP decomposition).
// ---------------------------------------------------------------------------

/// Register-tile and cache-block sizes. MR spans whole SIMD registers; the
/// accumulator tile (MR x NR) stays resident in registers across the KC
/// loop. MC x KC of packed A targets L2; KC x NC of packed B targets L3.
inline constexpr index_t MR = 8, NR = 6;
inline constexpr index_t MC = 128, KC = 256, NC = 768;

/// Pack op(A)[i0..i0+mc) x [p0..p0+kc) into MR-row panels: panel ir holds
/// element (ii, l) at [ir*MR*kc + l*MR + ii], rows zero-padded to MR so the
/// micro-kernel never branches on the edge.
void pack_a(ConstMatrixView a, Trans ta, index_t i0, index_t p0,
            index_t mc, index_t kc, double* dst) {
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    double* p = dst;
    if (ta == Trans::No) {
      for (index_t l = 0; l < kc; ++l) {
        const double* col = &a(i0 + ir, p0 + l);
        index_t ii = 0;
        for (; ii < mr; ++ii) p[ii] = col[ii];
        for (; ii < MR; ++ii) p[ii] = 0.0;
        p += MR;
      }
    } else {
      for (index_t l = 0; l < kc; ++l) {
        index_t ii = 0;
        for (; ii < mr; ++ii) p[ii] = a(p0 + l, i0 + ir + ii);
        for (; ii < MR; ++ii) p[ii] = 0.0;
        p += MR;
      }
    }
    dst += MR * kc;
  }
}

/// Pack op(B)[p0..p0+kc) x [j0..j0+nc) into NR-column panels: panel jr
/// holds element (l, jj) at [jr*NR*kc + l*NR + jj], columns zero-padded to
/// NR. Padded (all-zero) columns contribute nothing and are never stored
/// back, so real columns round independently of the panel's edge.
void pack_b(ConstMatrixView b, Trans tb, index_t p0, index_t j0,
            index_t kc, index_t nc, double* dst) {
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr = std::min(NR, nc - jr);
    double* p = dst;
    for (index_t l = 0; l < kc; ++l) {
      index_t jj = 0;
      if (tb == Trans::No) {
        for (; jj < nr; ++jj) p[jj] = b(p0 + l, j0 + jr + jj);
      } else {
        for (; jj < nr; ++jj) p[jj] = b(j0 + jr + jj, p0 + l);
      }
      for (; jj < NR; ++jj) p[jj] = 0.0;
      p += NR;
    }
    dst += NR * kc;
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define HATRIX_LA_VECTOR_EXT 1
#endif

/// The register-tiled micro-kernel: acc(MR x NR) = sum_l Ap(:, l) Bp(l, :),
/// then C(0..m_eff, 0..n_eff) += alpha * acc. Each of the NR accumulators is
/// a named MR-lane vector (GCC/Clang vector extension) so they provably live
/// in registers across the KC loop — a plain double[MR*NR] local exceeds the
/// compilers' scalarization limits and gets spilled per iteration. Each
/// (i, j) accumulates over l in ascending order, independent of every other
/// column (the per-column determinism contract).
inline void micro_kernel(index_t kc, const double* ap, const double* bp,
                         double alpha, MatrixView c, index_t m_eff,
                         index_t n_eff) {
  double acc[MR * NR];
#if HATRIX_LA_VECTOR_EXT
  static_assert(NR == 6, "micro-kernel is hand-unrolled for NR == 6");
  typedef double V __attribute__((vector_size(MR * sizeof(double))));
  V c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  for (index_t l = 0; l < kc; ++l) {
    V av;
    __builtin_memcpy(&av, ap + l * MR, sizeof(V));  // packed, possibly unaligned
    const double* b = bp + l * NR;
    c0 += av * b[0];
    c1 += av * b[1];
    c2 += av * b[2];
    c3 += av * b[3];
    c4 += av * b[4];
    c5 += av * b[5];
  }
  __builtin_memcpy(acc + 0 * MR, &c0, sizeof(V));
  __builtin_memcpy(acc + 1 * MR, &c1, sizeof(V));
  __builtin_memcpy(acc + 2 * MR, &c2, sizeof(V));
  __builtin_memcpy(acc + 3 * MR, &c3, sizeof(V));
  __builtin_memcpy(acc + 4 * MR, &c4, sizeof(V));
  __builtin_memcpy(acc + 5 * MR, &c5, sizeof(V));
#else
  for (index_t i = 0; i < MR * NR; ++i) acc[i] = 0.0;
  for (index_t l = 0; l < kc; ++l) {
    const double* a = ap + l * MR;
    const double* b = bp + l * NR;
    for (index_t j = 0; j < NR; ++j) {
      const double blj = b[j];
      for (index_t i = 0; i < MR; ++i) acc[j * MR + i] += a[i] * blj;
    }
  }
#endif
  if (m_eff == MR && n_eff == NR) {
    for (index_t j = 0; j < NR; ++j)
      for (index_t i = 0; i < MR; ++i) c(i, j) += alpha * acc[j * MR + i];
  } else {
    for (index_t j = 0; j < n_eff; ++j)
      for (index_t i = 0; i < m_eff; ++i) c(i, j) += alpha * acc[j * MR + i];
  }
}

/// dst[i] -= sum_q x_q[i] * y_q for i in [0, len), over the `cnt` columns
/// x_q = x + q * ldx and scalars y_q = y[q * incy]. Each dst[i] takes its
/// subtractions in ascending q, the order of the reference kernels' inner
/// loops. Four columns per pass: dst is loaded and stored once per four
/// axpys, and every pass runs down contiguous column segments, so it
/// vectorizes. `dst` must not overlap any x_q.
void sub_columns(double* dst, index_t len, const double* x, index_t ldx,
                 const double* y, index_t incy, index_t cnt) {
  index_t q = 0;
  for (; q + 4 <= cnt; q += 4) {
    const double* x0 = x + q * ldx;
    const double* x1 = x0 + ldx;
    const double* x2 = x1 + ldx;
    const double* x3 = x2 + ldx;
    const double y0 = y[q * incy], y1 = y[(q + 1) * incy];
    const double y2 = y[(q + 2) * incy], y3 = y[(q + 3) * incy];
    for (index_t i = 0; i < len; ++i)
      dst[i] = (((dst[i] - x0[i] * y0) - x1[i] * y1) - x2[i] * y2) - x3[i] * y3;
  }
  for (; q < cnt; ++q) {
    const double* x0 = x + q * ldx;
    const double y0 = y[q * incy];
    for (index_t i = 0; i < len; ++i) dst[i] -= x0[i] * y0;
  }
}

/// Solve X op(T) = B for one diagonal block, a column of B at a time: column
/// j takes the axpys of its already-solved columns (sub_columns), then its
/// pivot. Same per-entry operation order as trsm_naive's Side::Right loop,
/// which walks B's rows with strided reads instead.
void trsm_right_diag(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t,
                     MatrixView b) {
  const index_t n = t.rows, m = b.rows;
  // op(T) effectively lower: columns resolve last to first.
  const bool forward = ((uplo == UpLo::Lower) == (trans == Trans::No));
  for (index_t step = 0; step < n; ++step) {
    const index_t j = forward ? n - 1 - step : step;
    double* bj = &b(0, j);
    // Solved columns l in [l0, l0 + cnt), each weighted by op(T)(l, j):
    // down column j of T, or along its row j when transposed.
    const index_t l0 = forward ? j + 1 : 0, cnt = forward ? n - 1 - j : j;
    if (cnt > 0) {
      if (trans == Trans::No)
        sub_columns(bj, m, &b(0, l0), b.ld, &t(l0, j), 1, cnt);
      else
        sub_columns(bj, m, &b(0, l0), b.ld, &t(j, l0), t.ld, cnt);
    }
    if (diag == Diag::NonUnit) {
      const double d = t(j, j);
      for (index_t i = 0; i < m; ++i) bj[i] /= d;
    }
  }
}

}  // namespace

void potrf_panel(MatrixView a) {
  const index_t m = a.rows, n = a.cols;
  for (index_t j = 0; j < n; ++j) {
    // Column j below the diagonal, minus the factored columns to its left
    // weighted by row j: the diagonal entry first, then the rows under it.
    double* cj = &a(j, j);
    sub_columns(cj, m - j, &a(j, 0), a.ld, &a(j, 0), a.ld, j);
    HATRIX_CHECK(cj[0] > 0.0, "matrix not positive definite (pivot " +
                                  std::to_string(j) + ")");
    const double d = std::sqrt(cj[0]);
    cj[0] = d;
    for (index_t i = 1; i < m - j; ++i) cj[i] /= d;
  }
}

void gemm_blocked(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                  Trans tb, double beta, MatrixView c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(a, ta);
  if (beta == 0.0) {
    fill_impl(c, 0.0);
  } else if (beta != 1.0) {
    scale_impl(c, beta);
  }
  if (alpha == 0.0 || k == 0 || m == 0 || n == 0) return;

  thread_local std::vector<double> apack;
  thread_local std::vector<double> bpack;
  apack.resize(static_cast<std::size_t>(MC * KC));
  bpack.resize(static_cast<std::size_t>(KC * NC));

  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      pack_b(b, tb, pc, jc, kc, nc, bpack.data());
      for (index_t ic = 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        pack_a(a, ta, ic, pc, mc, kc, apack.data());
        for (index_t jr = 0; jr < nc; jr += NR) {
          const index_t n_eff = std::min(NR, nc - jr);
          const double* bp = bpack.data() + (jr / NR) * NR * kc;
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t m_eff = std::min(MR, mc - ir);
            const double* ap = apack.data() + (ir / MR) * MR * kc;
            micro_kernel(
                kc, ap, bp, alpha, c.block(ic + ir, jc + jr, m_eff, n_eff),
                m_eff, n_eff);
          }
        }
      }
    }
  }
}

void trsm_blocked(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
                  ConstMatrixView t, MatrixView b) {
  const index_t n = t.rows;
  if (alpha == 0.0) {
    fill_impl(b, 0.0);
    return;
  }
  if (alpha != 1.0) scale_impl(b, alpha);
  if (n == 0 || b.rows == 0 || b.cols == 0) return;

  const bool forward = ((uplo == UpLo::Lower) == (trans == Trans::No));
  const index_t nb = kBlock;
  const index_t nblocks = (n + nb - 1) / nb;

  // View of op(T)'s block (bi, bj) expressed as (source block, Trans flag).
  auto opt_block = [&](index_t bi0, index_t bj0, index_t mi,
                       index_t mj) -> std::pair<ConstMatrixView, Trans> {
    if (trans == Trans::No) return {t.block(bi0, bj0, mi, mj), Trans::No};
    return {t.block(bj0, bi0, mj, mi), Trans::Yes};
  };

  if (side == Side::Left) {
    // Solve op(T) X = B: factor block row bi, then eliminate it from every
    // still-unsolved block row (right-looking). Column j of X only ever
    // sees column j of B — unblocked diagonal solves and gemm updates are
    // both column-independent.
    for (index_t step = 0; step < nblocks; ++step) {
      const index_t bi = forward ? step : nblocks - 1 - step;
      const index_t i0 = bi * nb, ni = std::min(nb, n - i0);
      trsm_naive(Side::Left, uplo, trans, diag, 1.0, t.block(i0, i0, ni, ni),
                 b.block(i0, 0, ni, b.cols));
      for (index_t step2 = step + 1; step2 < nblocks; ++step2) {
        const index_t bj = forward ? step2 : nblocks - 1 - step2;
        const index_t j0 = bj * nb, nj = std::min(nb, n - j0);
        auto [tv, tt] = opt_block(j0, i0, nj, ni);
        gemm_blocked(-1.0, tv, tt, ConstMatrixView(b.block(i0, 0, ni, b.cols)),
                     Trans::No, 1.0, b.block(j0, 0, nj, b.cols));
      }
    }
  } else {
    // Solve X op(T) = B over column blocks of B: solve block column bj, then
    // take it out of every still-unsolved column with one gemm. `forward`
    // means op(T) is effectively lower, so columns resolve last-to-first.
    for (index_t step = 0; step < nblocks; ++step) {
      const index_t bj = forward ? nblocks - 1 - step : step;
      const index_t j0 = bj * nb, nj = std::min(nb, n - j0);
      trsm_right_diag(uplo, trans, diag, t.block(j0, j0, nj, nj),
                      b.block(0, j0, b.rows, nj));
      const index_t c0 = forward ? 0 : j0 + nj;
      const index_t ncw = forward ? j0 : n - j0 - nj;
      if (ncw == 0) continue;
      auto [tv, tt] = opt_block(j0, c0, nj, ncw);
      gemm_blocked(-1.0, ConstMatrixView(b.block(0, j0, b.rows, nj)), Trans::No,
                   tv, tt, 1.0, b.block(0, c0, b.rows, ncw));
    }
  }
}

void syrk_blocked(double alpha, ConstMatrixView a, Trans trans, double beta,
                  MatrixView c) {
  const index_t n = c.rows, k = op_cols(a, trans);
  if (beta == 0.0) {
    fill_impl(c, 0.0);
  } else if (beta != 1.0) {
    scale_impl(c, beta);
  }
  if (alpha != 0.0 && k != 0) {
    // Lower triangle by block columns, one gemm each: the nb x nb diagonal
    // tile, whose strict upper part the mirror below overwrites, and the
    // panel under it.
    for (index_t j0 = 0; j0 < n; j0 += kBlock) {
      const index_t nj = std::min(kBlock, n - j0), rows = n - j0;
      if (trans == Trans::No) {
        gemm_blocked(alpha, a.block(j0, 0, rows, k), Trans::No,
                     a.block(j0, 0, nj, k), Trans::Yes, 1.0,
                     c.block(j0, j0, rows, nj));
      } else {
        gemm_blocked(alpha, a.block(0, j0, k, rows), Trans::Yes,
                     a.block(0, j0, k, nj), Trans::No, 1.0,
                     c.block(j0, j0, rows, nj));
      }
    }
  }
  // Mirror (both triangles are written, as the naive kernel does — also for
  // no-op updates, where syrk still symmetrizes C).
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) c(j, i) = c(i, j);
}

}  // namespace detail

namespace {

void check_gemm(ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
                MatrixView c) {
  HATRIX_CHECK(detail::op_rows(b, tb) == detail::op_cols(a, ta),
               "gemm inner dimension mismatch");
  HATRIX_CHECK(c.rows == detail::op_rows(a, ta) && c.cols == detail::op_cols(b, tb),
               "gemm output shape mismatch");
}

void check_syrk(ConstMatrixView a, Trans trans, MatrixView c) {
  HATRIX_CHECK(c.rows == detail::op_rows(a, trans) && c.cols == c.rows,
               "syrk output shape mismatch");
}

void check_tr(Side side, ConstMatrixView t, MatrixView b, const char* who) {
  HATRIX_CHECK(t.rows == t.cols, std::string(who) + " triangular matrix must be square");
  if (side == Side::Left) {
    HATRIX_CHECK(b.rows == t.rows, std::string(who) + " dimension mismatch");
  } else {
    HATRIX_CHECK(b.cols == t.rows, std::string(who) + " dimension mismatch");
  }
}

}  // namespace

// Flop accounting happens here, at the public entry points, and only when
// the call performs arithmetic: no-op calls (alpha == 0 or an empty
// dimension) previously inflated the counters the benches and the distsim
// cost model consume.
void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c) {
  check_gemm(a, ta, b, tb, c);
  const index_t m = c.rows, n = c.cols, k = detail::op_cols(a, ta);
  if (alpha != 0.0 && m != 0 && n != 0 && k != 0)
    flops::add(static_cast<std::uint64_t>(2) * m * n * k);
  if (n == 1 && tb == Trans::No) {
    // One-column calls (single-RHS solves) get views with a literal column
    // count, so the compiler specializes the kernel as it does for gemv.
    // Same arithmetic, same per-column order: results are bit-identical.
    detail::gemm_blocked(alpha, a, ta, ConstMatrixView{b.data, b.rows, 1, b.ld},
                         Trans::No, beta, MatrixView{c.data, c.rows, 1, c.ld});
    return;
  }
  detail::gemm_blocked(alpha, a, ta, b, tb, beta, c);
}

Matrix matmul(ConstMatrixView a, ConstMatrixView b, Trans ta, Trans tb) {
  Matrix c(detail::op_rows(a, ta), detail::op_cols(b, tb));
  gemm(1.0, a, ta, b, tb, 0.0, c.view());
  return c;
}

void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c) {
  check_syrk(a, trans, c);
  const index_t n = c.rows, k = detail::op_cols(a, trans);
  if (alpha != 0.0 && n != 0 && k != 0)
    flops::add(static_cast<std::uint64_t>(n) * n * k);  // symmetric half counted
  detail::syrk_blocked(alpha, a, trans, beta, c);
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  check_tr(side, t, b, "trsm");
  const index_t n = t.rows;
  const index_t rhs = side == Side::Left ? b.cols : b.rows;
  if (alpha != 0.0 && n != 0 && rhs != 0)
    flops::add(static_cast<std::uint64_t>(n) * n * rhs);
  detail::trsm_blocked(side, uplo, trans, diag, alpha, t, b);
}

void gemv(double alpha, ConstMatrixView a, Trans ta, const double* x, double beta,
          double* y) {
  // One-column gemm so vector and panel calls stay bit-identical per column
  // (the solve layer's determinism contract).
  const index_t m = detail::op_rows(a, ta), n = detail::op_cols(a, ta);
  const ConstMatrixView xv{x, n, 1, n > 0 ? n : 1};
  const MatrixView yv{y, m, 1, m > 0 ? m : 1};
  gemm(alpha, a, ta, xv, Trans::No, beta, yv);
}

void add_scaled(MatrixView y, double alpha, ConstMatrixView x) {
  HATRIX_CHECK(y.rows == x.rows && y.cols == x.cols, "add_scaled shape mismatch");
  flops::add(static_cast<std::uint64_t>(2) * y.rows * y.cols);
  for (index_t j = 0; j < y.cols; ++j)
    for (index_t i = 0; i < y.rows; ++i) y(i, j) += alpha * x(i, j);
}

void scale(MatrixView a, double alpha) { detail::scale_impl(a, alpha); }

double dot(ConstMatrixView a, ConstMatrixView b) {
  HATRIX_CHECK(a.rows == b.rows && a.cols == b.cols, "dot shape mismatch");
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) s += a(i, j) * b(i, j);
  return s;
}

// --- The retained naive reference (conformance oracle). ---

namespace ref {

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
          double beta, MatrixView c) {
  check_gemm(a, ta, b, tb, c);
  detail::gemm_naive(alpha, a, ta, b, tb, beta, c);
}
void syrk(double alpha, ConstMatrixView a, Trans trans, double beta, MatrixView c) {
  check_syrk(a, trans, c);
  detail::syrk_naive(alpha, a, trans, beta, c);
}
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  check_tr(side, t, b, "trsm");
  detail::trsm_naive(side, uplo, trans, diag, alpha, t, b);
}
void potrf(MatrixView a) {
  HATRIX_CHECK(a.rows == a.cols, "potrf requires a square matrix");
  detail::potrf_unblocked(a);
  for (index_t j = 1; j < a.cols; ++j)
    for (index_t i = 0; i < j; ++i) a(i, j) = 0.0;
}

}  // namespace ref

}  // namespace hatrix::la
