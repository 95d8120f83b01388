#pragma once
/// \file blas_detail.hpp
/// \brief Internal templated kernel implementations behind la::gemm et al.
///
/// Two families, templated on the scalar type:
///
///   *_naive   — the original reference triple loops (the conformance
///               oracle; exposed publicly through la::ref).
///   *_blocked — cache-blocked, packing GEBP gemm with a register-tiled
///               micro-kernel; trsm/syrk are recast as unblocked
///               diagonal-block solves plus blocked-gemm panel updates.
///
/// Determinism invariant (the solve layer's panel/column bit-identity
/// depends on it): in every kernel here, the arithmetic performed for
/// column j of the output depends only on (m, k) and column j of the
/// inputs — never on how many other columns the call carries. The blocked
/// gemm keeps one accumulator per (i, j), visits l in ascending order
/// within each KC chunk, and applies chunks in ascending order, so a
/// one-column call and a panel call round identically.
///
/// Nothing in this header counts flops or validates shapes: the public
/// entry points in blas.cpp own both.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"

namespace hatrix::la::detail {

template <class T>
index_t op_rows(ConstMatrixViewT<T> a, Trans t) {
  return t == Trans::No ? a.rows : a.cols;
}
template <class T>
index_t op_cols(ConstMatrixViewT<T> a, Trans t) {
  return t == Trans::No ? a.cols : a.rows;
}

template <class T>
void fill_impl(MatrixViewT<T> a, T value) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) = value;
}

template <class T>
void scale_impl(MatrixViewT<T> a, T alpha) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) *= alpha;
}

// ---------------------------------------------------------------------------
// Naive reference kernels (the original hand-rolled loops).
// ---------------------------------------------------------------------------

template <class T>
void gemm_naive(T alpha, ConstMatrixViewT<T> a, Trans ta, ConstMatrixViewT<T> b,
                Trans tb, T beta, MatrixViewT<T> c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(a, ta);
  if (beta == T(0)) {
    fill_impl(c, T(0));
  } else if (beta != T(1)) {
    scale_impl(c, beta);
  }
  if (alpha == T(0) || k == 0) return;

  // Column-major friendly loop orders; the A-no-trans cases stream down
  // columns of A and C.
  if (ta == Trans::No && tb == Trans::No) {
    for (index_t j = 0; j < n; ++j)
      for (index_t l = 0; l < k; ++l) {
        const T blj = alpha * b(l, j);
        if (blj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, l) * blj;
      }
  } else if (ta == Trans::No && tb == Trans::Yes) {
    for (index_t j = 0; j < n; ++j)
      for (index_t l = 0; l < k; ++l) {
        const T blj = alpha * b(j, l);
        if (blj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, l) * blj;
      }
  } else if (ta == Trans::Yes && tb == Trans::No) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        T s = T(0);
        for (index_t l = 0; l < k; ++l) s += a(l, i) * b(l, j);
        c(i, j) += alpha * s;
      }
  } else {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        T s = T(0);
        for (index_t l = 0; l < k; ++l) s += a(l, i) * b(j, l);
        c(i, j) += alpha * s;
      }
  }
}

template <class T>
void syrk_naive(T alpha, ConstMatrixViewT<T> a, Trans trans, T beta,
                MatrixViewT<T> c) {
  const index_t n = c.rows, k = op_cols(a, trans);
  if (beta == T(0)) {
    fill_impl(c, T(0));
  } else if (beta != T(1)) {
    scale_impl(c, beta);
  }
  // Compute the lower triangle, then mirror. The mirror runs even for a
  // no-op update (alpha == 0 / k == 0): syrk's contract is that both
  // triangles of C hold the symmetric result on return.
  if (alpha != T(0) && k != 0) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i < n; ++i) {
        T s = T(0);
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

template <class T>
void trsm_naive(Side side, UpLo uplo, Trans trans, Diag diag, T alpha,
                ConstMatrixViewT<T> t, MatrixViewT<T> b) {
  const index_t n = t.rows;
  if (alpha != T(1)) scale_impl(b, alpha);

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
          T s = b(i, col);
          for (index_t j = 0; j < i; ++j) s -= tval(i, j) * b(j, col);
          b(i, col) = unit ? s : s / tval(i, i);
        }
      } else {
        for (index_t i = n - 1; i >= 0; --i) {
          T s = b(i, col);
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
          T s = b(row, j);
          for (index_t l = j + 1; l < n; ++l) s -= b(row, l) * tval(l, j);
          b(row, j) = unit ? s : s / tval(j, j);
        }
      } else {
        for (index_t j = 0; j < n; ++j) {
          T s = b(row, j);
          for (index_t l = 0; l < j; ++l) s -= b(row, l) * tval(l, j);
          b(row, j) = unit ? s : s / tval(j, j);
        }
      }
    }
  }
}

/// Unblocked lower Cholesky (dpotf2-style). Used for diagonal blocks by the
/// blocked potrf and as the reference factorization. Does NOT touch the
/// strict upper triangle — the callers zero it once at the end.
template <class T>
void potrf_unblocked(MatrixViewT<T> a) {
  const index_t n = a.rows;
  for (index_t j = 0; j < n; ++j) {
    T d = a(j, j);
    for (index_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    HATRIX_CHECK(d > T(0), "matrix not positive definite (pivot " +
                               std::to_string(j) + ")");
    d = std::sqrt(d);
    a(j, j) = d;
    for (index_t i = j + 1; i < n; ++i) {
      T s = a(i, j);
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
template <class T>
struct GemmBlocking;
template <>
struct GemmBlocking<double> {
  static constexpr index_t MR = 8, NR = 6;
  static constexpr index_t MC = 128, KC = 256, NC = 768;
};

/// Pack op(A)[i0..i0+mc) x [p0..p0+kc) into MR-row panels: panel ir holds
/// element (ii, l) at [ir*MR*kc + l*MR + ii], rows zero-padded to MR so the
/// micro-kernel never branches on the edge.
template <class T, index_t MR>
void pack_a(ConstMatrixViewT<T> a, Trans ta, index_t i0, index_t p0, index_t mc,
            index_t kc, T* dst) {
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    T* p = dst;
    if (ta == Trans::No) {
      for (index_t l = 0; l < kc; ++l) {
        const T* col = &a(i0 + ir, p0 + l);
        index_t ii = 0;
        for (; ii < mr; ++ii) p[ii] = col[ii];
        for (; ii < MR; ++ii) p[ii] = T(0);
        p += MR;
      }
    } else {
      for (index_t l = 0; l < kc; ++l) {
        index_t ii = 0;
        for (; ii < mr; ++ii) p[ii] = a(p0 + l, i0 + ir + ii);
        for (; ii < MR; ++ii) p[ii] = T(0);
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
template <class T, index_t NR>
void pack_b(ConstMatrixViewT<T> b, Trans tb, index_t p0, index_t j0, index_t kc,
            index_t nc, T* dst) {
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr = std::min(NR, nc - jr);
    T* p = dst;
    for (index_t l = 0; l < kc; ++l) {
      index_t jj = 0;
      if (tb == Trans::No) {
        for (; jj < nr; ++jj) p[jj] = b(p0 + l, j0 + jr + jj);
      } else {
        for (; jj < nr; ++jj) p[jj] = b(j0 + jr + jj, p0 + l);
      }
      for (; jj < NR; ++jj) p[jj] = T(0);
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
/// in registers across the KC loop — a plain T[MR*NR] local exceeds the
/// compilers' scalarization limits and gets spilled per iteration. Each
/// (i, j) accumulates over l in ascending order, independent of every other
/// column (the per-column determinism contract).
template <class T, int MR, int NR>
inline void micro_kernel(index_t kc, const T* ap, const T* bp, T alpha,
                         MatrixViewT<T> c, index_t m_eff, index_t n_eff) {
  T acc[MR * NR];
#if HATRIX_LA_VECTOR_EXT
  static_assert(NR == 6, "micro-kernel is hand-unrolled for NR == 6");
  typedef T V __attribute__((vector_size(MR * sizeof(T))));
  V c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  for (index_t l = 0; l < kc; ++l) {
    V av;
    __builtin_memcpy(&av, ap + l * MR, sizeof(V));  // packed, possibly unaligned
    const T* b = bp + l * NR;
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
  for (int i = 0; i < MR * NR; ++i) acc[i] = T(0);
  for (index_t l = 0; l < kc; ++l) {
    const T* a = ap + l * MR;
    const T* b = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const T blj = b[j];
      for (int i = 0; i < MR; ++i) acc[j * MR + i] += a[i] * blj;
    }
  }
#endif
  if (m_eff == MR && n_eff == NR) {
    for (int j = 0; j < NR; ++j)
      for (int i = 0; i < MR; ++i) c(i, j) += alpha * acc[j * MR + i];
  } else {
    for (index_t j = 0; j < n_eff; ++j)
      for (index_t i = 0; i < m_eff; ++i) c(i, j) += alpha * acc[j * MR + i];
  }
}

template <class T>
void gemm_blocked(T alpha, ConstMatrixViewT<T> a, Trans ta, ConstMatrixViewT<T> b,
                  Trans tb, T beta, MatrixViewT<T> c) {
  const index_t m = c.rows, n = c.cols, k = op_cols(a, ta);
  if (beta == T(0)) {
    fill_impl(c, T(0));
  } else if (beta != T(1)) {
    scale_impl(c, beta);
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;

  using Bl = GemmBlocking<T>;
  thread_local std::vector<T> apack;
  thread_local std::vector<T> bpack;
  apack.resize(static_cast<std::size_t>(Bl::MC * Bl::KC));
  bpack.resize(static_cast<std::size_t>(Bl::KC * Bl::NC));

  for (index_t jc = 0; jc < n; jc += Bl::NC) {
    const index_t nc = std::min(Bl::NC, n - jc);
    for (index_t pc = 0; pc < k; pc += Bl::KC) {
      const index_t kc = std::min(Bl::KC, k - pc);
      pack_b<T, Bl::NR>(b, tb, pc, jc, kc, nc, bpack.data());
      for (index_t ic = 0; ic < m; ic += Bl::MC) {
        const index_t mc = std::min(Bl::MC, m - ic);
        pack_a<T, Bl::MR>(a, ta, ic, pc, mc, kc, apack.data());
        for (index_t jr = 0; jr < nc; jr += Bl::NR) {
          const index_t n_eff = std::min(Bl::NR, nc - jr);
          const T* bp = bpack.data() + (jr / Bl::NR) * Bl::NR * kc;
          for (index_t ir = 0; ir < mc; ir += Bl::MR) {
            const index_t m_eff = std::min(Bl::MR, mc - ir);
            const T* ap = apack.data() + (ir / Bl::MR) * Bl::MR * kc;
            micro_kernel<T, Bl::MR, Bl::NR>(
                kc, ap, bp, alpha, c.block(ic + ir, jc + jr, m_eff, n_eff),
                m_eff, n_eff);
          }
        }
      }
    }
  }
}

/// Block size for the triangular-solve and syrk diagonal blocks: big enough
/// that the gemm panel updates dominate, small enough that the unblocked
/// diagonal work stays cache-resident.
inline constexpr index_t kTrsmBlock = 64;

template <class T>
void trsm_blocked(Side side, UpLo uplo, Trans trans, Diag diag, T alpha,
                  ConstMatrixViewT<T> t, MatrixViewT<T> b) {
  const index_t n = t.rows;
  if (alpha == T(0)) {
    fill_impl(b, T(0));
    return;
  }
  if (alpha != T(1)) scale_impl(b, alpha);
  if (n == 0 || b.rows == 0 || b.cols == 0) return;

  const bool forward = ((uplo == UpLo::Lower) == (trans == Trans::No));
  const index_t nb = kTrsmBlock;
  const index_t nblocks = (n + nb - 1) / nb;

  // View of op(T)'s block (bi, bj) expressed as (source block, Trans flag).
  auto opt_block = [&](index_t bi0, index_t bj0, index_t mi,
                       index_t mj) -> std::pair<ConstMatrixViewT<T>, Trans> {
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
      trsm_naive<T>(Side::Left, uplo, trans, diag, T(1), t.block(i0, i0, ni, ni),
                    b.block(i0, 0, ni, b.cols));
      for (index_t step2 = step + 1; step2 < nblocks; ++step2) {
        const index_t bj = forward ? step2 : nblocks - 1 - step2;
        const index_t j0 = bj * nb, nj = std::min(nb, n - j0);
        auto [tv, tt] = opt_block(j0, i0, nj, ni);
        gemm_blocked<T>(T(-1), tv, tt,
                        ConstMatrixViewT<T>(b.block(i0, 0, ni, b.cols)),
                        Trans::No, T(1), b.block(j0, 0, nj, b.cols));
      }
    }
  } else {
    // Solve X op(T) = B over column blocks of B. `forward` means op(T) is
    // effectively lower, so columns resolve last-to-first.
    for (index_t step = 0; step < nblocks; ++step) {
      const index_t bj = forward ? nblocks - 1 - step : step;
      const index_t j0 = bj * nb, nj = std::min(nb, n - j0);
      trsm_naive<T>(Side::Right, uplo, trans, diag, T(1), t.block(j0, j0, nj, nj),
                    b.block(0, j0, b.rows, nj));
      for (index_t step2 = step + 1; step2 < nblocks; ++step2) {
        const index_t bc = forward ? nblocks - 1 - step2 : step2;
        const index_t c0 = bc * nb, ncw = std::min(nb, n - c0);
        auto [tv, tt] = opt_block(j0, c0, nj, ncw);
        gemm_blocked<T>(T(-1), ConstMatrixViewT<T>(b.block(0, j0, b.rows, nj)),
                        Trans::No, tv, tt, T(1), b.block(0, c0, b.rows, ncw));
      }
    }
  }
}

/// Lower-triangle-only unblocked syrk used for the diagonal blocks of the
/// blocked syrk (beta already applied by the caller).
template <class T>
void syrk_lower_unblocked(T alpha, ConstMatrixViewT<T> a, Trans trans,
                          MatrixViewT<T> c) {
  const index_t n = c.rows, k = op_cols(a, trans);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      T s = T(0);
      if (trans == Trans::No) {
        for (index_t l = 0; l < k; ++l) s += a(i, l) * a(j, l);
      } else {
        for (index_t l = 0; l < k; ++l) s += a(l, i) * a(l, j);
      }
      c(i, j) += alpha * s;
    }
  }
}

template <class T>
void syrk_blocked(T alpha, ConstMatrixViewT<T> a, Trans trans, T beta,
                  MatrixViewT<T> c) {
  const index_t n = c.rows, k = op_cols(a, trans);
  if (beta == T(0)) {
    fill_impl(c, T(0));
  } else if (beta != T(1)) {
    scale_impl(c, beta);
  }
  if (alpha != T(0) && k != 0) {
    // Lower triangle blockwise: unblocked diagonal tiles, gemm panels below.
    const index_t nb = kTrsmBlock;
    for (index_t j0 = 0; j0 < n; j0 += nb) {
      const index_t nj = std::min(nb, n - j0);
      syrk_lower_unblocked<T>(
          alpha,
          trans == Trans::No ? a.block(j0, 0, nj, k) : a.block(0, j0, k, nj),
          trans, c.block(j0, j0, nj, nj));
      for (index_t i0 = j0 + nb; i0 < n; i0 += nb) {
        const index_t ni = std::min(nb, n - i0);
        if (trans == Trans::No) {
          gemm_blocked<T>(alpha, a.block(i0, 0, ni, k), Trans::No,
                          a.block(j0, 0, nj, k), Trans::Yes, T(1),
                          c.block(i0, j0, ni, nj));
        } else {
          gemm_blocked<T>(alpha, a.block(0, i0, k, ni), Trans::Yes,
                          a.block(0, j0, k, nj), Trans::No, T(1),
                          c.block(i0, j0, ni, nj));
        }
      }
    }
  }
  // Mirror (both triangles are written, as the naive kernel does — also for
  // no-op updates, where syrk still symmetrizes C).
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) c(j, i) = c(i, j);
}

// ---------------------------------------------------------------------------
// Internal backend dispatchers (defined in blas.cpp): route to the active
// backend WITHOUT counting flops or re-checking shapes. Composite kernels
// (blocked potrf's panel updates) call these so work is counted exactly once
// at the public entry point.
// ---------------------------------------------------------------------------

void gemm_nc(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
             Trans tb, double beta, MatrixView c);
void syrk_nc(double alpha, ConstMatrixView a, Trans trans, double beta,
             MatrixView c);
void trsm_nc(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
             ConstMatrixView t, MatrixView b);

}  // namespace hatrix::la::detail
