/// \file qr.cpp
/// \brief Householder QR family as a level-3 kernel layer.
///
/// `qr` and `orth_complement` share one blocked factorization (LAPACK's
/// dgeqrf: unblocked panel reflectors, a compact-WY T factor, a gemm trailing
/// update) and build Q / the complement from the same blocks by gemm.
/// `pivoted_qr` is a dlaqps-style truncated column-pivoted QR that defers
/// the trailing update to one gemm per block. `qr` and `orth_complement`
/// keep the unblocked loops for at most kPanel reflectors. The classical unblocked Householder
/// flop count is recorded once per public call; the internal gemms call the
/// blocked kernel directly, not the counting entry point, so the count does
/// not depend on the block size.

#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "linalg/blas_detail.hpp"

namespace hatrix::la {

namespace {

/// Panel width of the blocked paths.
constexpr index_t kPanel = 32;

/// Address of a(i, j); unlike a(i, j) it may point one past a column's end.
double* at(MatrixView a, index_t i, index_t j) { return a.data + i + j * a.ld; }

/// Σ x[i] y[i]. Eight independent partial sums let the compiler vectorize
/// without reassociating; the order is fixed, so results are deterministic.
/// This and `atv` are QR-private: unlike la::gemv they carry no
/// vector/panel bit-identity contract, so they may skip gemm's packing.
double dot(const double* x, const double* y, index_t n) {
  double s[8] = {};
  index_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) s[l] += x[i + l] * y[i + l];
  double r = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  for (; i < n; ++i) r += x[i] * y[i];
  return r;
}

/// y[j] = alpha · a(:, j)ᵀ v, read straight from the column-major block.
void atv(ConstMatrixView a, const double* v, double alpha, double* y) {
  for (index_t j = 0; j < a.cols; ++j) y[j] = alpha * dot(&a(0, j), v, a.rows);
}

/// ‖x‖₂ without spurious underflow or overflow (dnrm2's guarantee): the
/// plain sum of squares when it is safely inside the normal range, else a
/// second pass scaled by max|x_i|.
double nrm2(const double* x, index_t n) {
  // Below this, the squares of the larger entries may have lost precision.
  constexpr double kTiny =
      std::numeric_limits<double>::min() / std::numeric_limits<double>::epsilon();
  const double s = dot(x, x, n);
  if (s >= kTiny && s <= std::numeric_limits<double>::max()) return std::sqrt(s);
  if (std::isnan(s)) return s;
  double amax = 0.0;
  for (index_t i = 0; i < n; ++i) amax = std::max(amax, std::abs(x[i]));
  if (amax == 0.0 || std::isinf(amax)) return amax;
  double t = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double y = x[i] / amax;
    t += y * y;
  }
  return amax * std::sqrt(t);
}

// Generate a Householder reflector for x (length m): H = I - tau v vᵀ with
// v[0] = 1, such that H x = (beta, 0, ..., 0). Returns {tau, beta}; v is
// written over x[1:].
struct Reflector {
  double tau;
  double beta;
};

Reflector make_reflector(double* x, index_t m) {
  const double alpha = x[0];
  const double xnorm = nrm2(x + 1, m - 1);
  if (xnorm == 0.0) {
    return {0.0, alpha};  // already e1-aligned; H = I
  }
  const double norm = std::hypot(alpha, xnorm);
  const double beta = alpha >= 0.0 ? -norm : norm;
  const double v0 = alpha - beta;
  for (index_t i = 1; i < m; ++i) x[i] /= v0;
  const double tau = (beta - alpha) / beta;
  return {tau, beta};
}

// Apply H = I - tau v vᵀ (v[0] implicit 1, stored in col below diag) to the
// block C (m x n) from the left: C := H C.
void apply_reflector(const double* v, double tau, MatrixView c) {
  if (tau == 0.0) return;
  const index_t m = c.rows;
  for (index_t j = 0; j < c.cols; ++j) {
    double* cj = at(c, 0, j);
    const double s = tau * (cj[0] + dot(v + 1, cj + 1, m - 1));
    cj[0] -= s;
    for (index_t i = 1; i < m; ++i) cj[i] -= v[i] * s;
  }
}

/// Unblocked Householder QR in place (dgeqr2): R on and above the diagonal,
/// reflector j's essential part below it, its scalar in tau[j].
void geqr2(MatrixView a, double* tau) {
  const index_t m = a.rows, n = a.cols, k = std::min(m, n);
  for (index_t j = 0; j < k; ++j) {
    double* col = at(a, j, j);
    const Reflector refl = make_reflector(col, m - j);
    tau[j] = refl.tau;
    if (j + 1 < n) apply_reflector(col, refl.tau, a.block(j, j + 1, m - j, n - j - 1));
    col[0] = refl.beta;
  }
}

/// H_0 ⋯ H_{b-1} = I - V T Vᵀ (compact WY) for b consecutive reflectors.
struct BlockReflector {
  Matrix v;  ///< rows x b, explicit: unit diagonal, zeros above it
  Matrix t;  ///< b x b upper triangular
};

/// Compact-WY form of the reflectors stored below the diagonal of `panel`
/// (rows >= cols), as dlarft builds it.
BlockReflector block_reflector(ConstMatrixView panel, const double* tau) {
  const index_t m = panel.rows, b = panel.cols;
  BlockReflector h{Matrix(m, b), Matrix(b, b)};
  for (index_t j = 0; j < b; ++j) {
    h.v(j, j) = 1.0;
    for (index_t i = j + 1; i < m; ++i) h.v(i, j) = panel(i, j);
  }
  // T(0:i, i) = -tau_i T(0:i, 0:i) V(:, 0:i)ᵀ v_i, with every VᵀV entry from
  // one gemm.
  Matrix s(b, b);
  detail::gemm_blocked(1.0, h.v.view(), Trans::Yes, h.v.view(), Trans::No, 0.0,
                       s.view());
  for (index_t i = 0; i < b; ++i) {
    h.t(i, i) = tau[i];
    for (index_t r = 0; r < i; ++r) {
      double acc = 0.0;
      for (index_t l = r; l < i; ++l) acc += h.t(r, l) * s(l, i);
      h.t(r, i) = -tau[i] * acc;
    }
  }
  return h;
}

/// C := (I - V op(T) Vᵀ) C: the block reflector (Trans::No) or its
/// transpose (Trans::Yes), by three gemms.
void apply_block(const BlockReflector& h, Trans op_t, MatrixView c) {
  const index_t b = h.t.rows();
  Matrix w(b, c.cols), tw(b, c.cols);
  detail::gemm_blocked(1.0, h.v.view(), Trans::Yes, c, Trans::No, 0.0, w.view());
  detail::gemm_blocked(1.0, h.t.view(), op_t, w.view(), Trans::No, 0.0, tw.view());
  detail::gemm_blocked(-1.0, h.v.view(), Trans::No, tw.view(), Trans::No, 1.0, c);
}

/// Compact-WY blocks, one per panel of kPanel consecutive reflectors.
using Blocks = std::vector<BlockReflector>;

/// Householder QR in place (dgeqrf), same storage as geqr2: panels of
/// kPanel reflectors, each applied to the trailing columns as one block.
/// Returns the blocks for apply_q to reuse; none when k <= kPanel, where
/// the unblocked loop runs and a T factor would cost more than it saves.
Blocks geqrf(MatrixView a, double* tau) {
  const index_t m = a.rows, n = a.cols, k = std::min(m, n);
  Blocks blocks;
  if (k <= kPanel) {
    geqr2(a, tau);
    return blocks;
  }
  for (index_t j = 0; j < k; j += kPanel) {
    const index_t b = std::min(kPanel, k - j);
    geqr2(a.block(j, j, m - j, b), tau + j);
    blocks.push_back(block_reflector(a.block(j, j, m - j, b), tau + j));
    if (j + b < n) apply_block(blocks.back(), Trans::Yes, a.block(j, j + b, m - j, n - j - b));
  }
  return blocks;
}

/// The blocks geqrf would return for the k = v.cols reflectors stored below
/// the diagonal of `v`.
Blocks panel_blocks(ConstMatrixView v, const double* tau) {
  const index_t m = v.rows, k = v.cols;
  Blocks blocks;
  if (k <= kPanel) return blocks;
  for (index_t j = 0; j < k; j += kPanel)
    blocks.push_back(block_reflector(v.block(j, j, m - j, std::min(kPanel, k - j)), tau + j));
  return blocks;
}

/// C := H_0 ⋯ H_{k-1} C for the k = v.cols reflectors stored below the
/// diagonal of `v` (C has v.rows rows), by `blocks` when there are any.
/// With `identity_prefix`, column j of C starts as e_j, so the reflectors
/// from row j on leave columns < j alone and are not applied to them
/// (dorgqr's saving).
void apply_q(ConstMatrixView v, const double* tau, const Blocks& blocks, MatrixView c,
             bool identity_prefix) {
  const index_t m = v.rows, k = v.cols;
  if (blocks.empty()) {
    for (index_t j = k - 1; j >= 0; --j) {
      const index_t c0 = identity_prefix ? j : 0;
      apply_reflector(&v(j, j), tau[j], c.block(j, c0, m - j, c.cols - c0));
    }
    return;
  }
  for (auto p = static_cast<index_t>(blocks.size()) - 1; p >= 0; --p) {
    const index_t j = p * kPanel;
    const index_t c0 = identity_prefix ? j : 0;
    apply_block(blocks[static_cast<std::size_t>(p)], Trans::No,
                c.block(j, c0, m - j, c.cols - c0));
  }
}

/// Classical flops of an unblocked Householder sweep of k reflectors over m
/// rows: reflector j touches rows [j, m) of cols(j) columns at 4 flops per
/// entry (the dot product and the update).
template <class Cols>
std::uint64_t sweep_flops(index_t m, index_t k, Cols cols) {
  std::uint64_t f = 0;
  for (index_t j = 0; j < k; ++j)
    f += static_cast<std::uint64_t>(4) * static_cast<std::uint64_t>(m - j) *
         static_cast<std::uint64_t>(cols(j));
  return f;
}

/// Flops of factoring k columns of an m x n matrix, each reflector updating
/// the columns to its right.
std::uint64_t factor_flops(index_t m, index_t n, index_t k) {
  return sweep_flops(m, k, [n](index_t j) { return n - j - 1; });
}

/// Flops of forming the m x k Q from k reflectors (dorgqr).
std::uint64_t form_q_flops(index_t m, index_t k) {
  return sweep_flops(m, k, [k](index_t j) { return k - j; });
}

/// The leading k rows of the upper trapezoid of `work` (k x n).
Matrix upper_rows(ConstMatrixView work, index_t k) {
  Matrix r(k, work.cols);
  for (index_t j = 0; j < work.cols; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = work(i, j);
  return r;
}

/// Columns e_0 … e_{k-1} of the m x m identity.
Matrix identity_columns(index_t m, index_t k) {
  Matrix q(m, k);
  for (index_t j = 0; j < k; ++j) q(j, j) = 1.0;
  return q;
}

/// Column-pivoting state: the permutation and the trailing column norms,
/// downdated LAPACK dgeqp3-style. A norm is kept from where it was last
/// recomputed exactly, and recomputed when the accumulated downdates could
/// be dominated by cancellation.
struct Pivoting {
  std::vector<index_t> perm;
  std::vector<double> norm;      ///< downdated norm of each column's trailing rows
  std::vector<double> norm_ref;  ///< norm at the last exact computation

  explicit Pivoting(MatrixView a)
      : perm(static_cast<std::size_t>(a.cols)),
        norm(static_cast<std::size_t>(a.cols)),
        norm_ref(static_cast<std::size_t>(a.cols)) {
    std::iota(perm.begin(), perm.end(), index_t{0});
    for (index_t j = 0; j < a.cols; ++j) recompute(j, at(a, 0, j), a.rows);
  }

  /// First column at or after k with the largest remaining norm.
  [[nodiscard]] index_t pick(index_t k) const {
    index_t p = k;
    for (index_t j = k + 1; j < static_cast<index_t>(norm.size()); ++j)
      if (norm[static_cast<std::size_t>(j)] > norm[static_cast<std::size_t>(p)]) p = j;
    return p;
  }

  [[nodiscard]] double norm_of(index_t j) const { return norm[static_cast<std::size_t>(j)]; }

  void swap(MatrixView a, index_t k, index_t p) {
    std::swap_ranges(at(a, 0, k), at(a, a.rows, k), at(a, 0, p));
    const auto uk = static_cast<std::size_t>(k), up = static_cast<std::size_t>(p);
    std::swap(norm[uk], norm[up]);
    std::swap(norm_ref[uk], norm_ref[up]);
    std::swap(perm[uk], perm[up]);
  }

  /// Downdate column j's norm by r, the entry just finalized in its R row.
  /// Returns false, leaving the norm alone, when the downdate has lost
  /// ~half the mantissa relative to the reference norm: the caller must
  /// recompute it from the trailing rows.
  bool downdate(index_t j, double r) {
    double& cn = norm[static_cast<std::size_t>(j)];
    if (cn == 0.0) return true;
    double temp = std::abs(r) / cn;
    temp = std::max(0.0, (1.0 + temp) * (1.0 - temp));
    const double ratio = cn / norm_ref[static_cast<std::size_t>(j)];
    if (temp * ratio * ratio <= 1e-14) return false;
    cn *= std::sqrt(temp);
    return true;
  }

  void recompute(index_t j, const double* trailing, index_t rows) {
    norm[static_cast<std::size_t>(j)] = norm_ref[static_cast<std::size_t>(j)] =
        nrm2(trailing, rows);
  }
};

/// Truncated pivoted QR (LAPACK's dlaqps loop). Within a block of
/// up to kPanel steps the trailing columns stay un-updated: column j's
/// pending update is -V F(j, :)ᵀ, with V the block's reflectors. Each step
/// brings only its pivot column and pivot row up to date and pays one
/// Aᵀv pass over the trailing block; one gemm per block applies the rest.
/// A column whose norm needs recomputing ends the block, because the
/// recompute reads updated trailing rows. A run that ends inside its first
/// block (kmax <= kPanel, say) never pays the gemm. Returns the rank reached.
index_t pivoted_factor(MatrixView a, index_t kmax, double tol, Pivoting& piv,
                       std::vector<double>& tau) {
  const index_t m = a.rows, n = a.cols;
  const index_t width = std::min(kPanel, kmax);
  Matrix f(n, width);
  std::vector<double> aux(static_cast<std::size_t>(width));
  std::vector<double> row(static_cast<std::size_t>(n));
  std::vector<index_t> stale;  // columns whose norm must be recomputed
  index_t k = 0;               // steps completed before the current block
  bool stop = false;
  while (k < kmax && !stop) {
    const index_t nb = std::min(kPanel, kmax - k);
    index_t c = 0;
    for (; c < nb && stale.empty(); ++c) {
      const index_t rk = k + c;
      const index_t p = piv.pick(rk);
      if (piv.norm_of(p) <= tol) {
        stop = true;
        break;
      }
      if (p != rk) {
        piv.swap(a, rk, p);
        for (index_t l = 0; l < c; ++l) std::swap(f(rk, l), f(p, l));
      }
      // Pivot column: A(rk:m, rk) -= A(rk:m, k:rk) F(rk, 0:c)ᵀ.
      double* v = at(a, rk, rk);
      for (index_t l = 0; l < c; ++l) {
        const double frl = f(rk, l);
        const double* vl = at(a, rk, k + l);
        for (index_t i = 0; i < m - rk; ++i) v[i] -= vl[i] * frl;
      }
      const Reflector refl = make_reflector(v, m - rk);
      tau.push_back(refl.tau);
      v[0] = 1.0;
      const index_t rest = n - rk - 1;
      double* fc = &f(0, c) + rk + 1;  // F(rk+1:n, c)
      // F(rk+1:n, c) = tau A(rk:m, rk+1:n)ᵀ v - tau F(rk+1:n, 0:c) (V(rk:m, :)ᵀ v).
      atv(a.block(rk, rk + 1, m - rk, rest), v, refl.tau, fc);
      if (c > 0) {
        atv(a.block(rk, k, m - rk, c), v, -refl.tau, aux.data());
        for (index_t l = 0; l < c; ++l) {
          const double* fl = &f(0, l) + rk + 1;
          const double s = aux[static_cast<std::size_t>(l)];
          for (index_t j = 0; j < rest; ++j) fc[j] += fl[j] * s;
        }
      }
      // Pivot row: A(rk, rk+1:n) -= A(rk, k:rk+1) F(rk+1:n, 0:c+1)ᵀ makes
      // row rk of R final. Summed in a contiguous buffer first, because the
      // row itself is strided.
      std::fill_n(row.begin(), rest, 0.0);
      for (index_t l = 0; l <= c; ++l) {
        const double arl = a(rk, k + l);
        const double* fl = &f(0, l) + rk + 1;
        for (index_t j = 0; j < rest; ++j) row[static_cast<std::size_t>(j)] += fl[j] * arl;
      }
      v[0] = refl.beta;
      for (index_t j = 0; j < rest; ++j) {
        double& r = a(rk, rk + 1 + j);
        r -= row[static_cast<std::size_t>(j)];
        if (!piv.downdate(rk + 1 + j, r)) stale.push_back(rk + 1 + j);
      }
    }
    k += c;
    if (stop || k == kmax) break;
    // Deferred trailing update: A(k:m, k:n) -= A(k:m, k-c:k) F(k:n, 0:c)ᵀ.
    detail::gemm_blocked(-1.0, a.block(k, k - c, m - k, c), Trans::No,
                         f.block(k, 0, n - k, c), Trans::Yes, 1.0,
                         a.block(k, k, m - k, n - k));
    for (index_t j : stale) piv.recompute(j, at(a, k, j), m - k);
    stale.clear();
  }
  return k;
}

}  // namespace

QrResult qr(ConstMatrixView a) {
  const index_t m = a.rows, n = a.cols;
  const index_t k = std::min(m, n);
  flops::add(factor_flops(m, n, k) + form_q_flops(m, k));
  Matrix work = Matrix::from_view(a);
  std::vector<double> tau(static_cast<std::size_t>(k), 0.0);
  const Blocks blocks = geqrf(work.view(), tau.data());

  QrResult out;
  out.r = upper_rows(work.view(), k);
  out.q = identity_columns(m, k);
  apply_q(work.block(0, 0, m, k), tau.data(), blocks, out.q.view(), true);
  return out;
}

PivotedQrResult pivoted_qr(ConstMatrixView a, index_t max_rank, double tol, bool want_q) {
  const index_t m = a.rows, n = a.cols;
  const index_t kmax = std::min({m, n, std::max<index_t>(max_rank, 0)});
  Matrix work = Matrix::from_view(a);
  Pivoting piv(work.view());
  std::vector<double> tau;
  tau.reserve(static_cast<std::size_t>(kmax));
  const index_t k = pivoted_factor(work.view(), kmax, tol, piv, tau);
  flops::add(factor_flops(m, n, k) + (want_q ? form_q_flops(m, k) : 0));

  PivotedQrResult out;
  out.rank = k;
  out.perm = std::move(piv.perm);
  out.r = upper_rows(work.view(), k);
  if (want_q) {
    out.q = identity_columns(m, k);
    const ConstMatrixView v = work.block(0, 0, m, k);
    apply_q(v, tau.data(), panel_blocks(v, tau.data()), out.q.view(), true);
  }
  return out;
}

Matrix orth_complement(ConstMatrixView u) {
  const index_t m = u.rows, k = u.cols;
  HATRIX_CHECK(k <= m, "orth_complement: more columns than rows");
  if (k == 0) return Matrix::identity(m);
  flops::add(factor_flops(m, k, k) +
             sweep_flops(m, k, [m, k](index_t) { return m - k; }));

  // Householder-factorize U; the full Q's trailing m-k columns span the
  // complement of col(U) because U = Q[:, :k] R.
  Matrix work = Matrix::from_view(u);
  std::vector<double> tau(static_cast<std::size_t>(k), 0.0);
  const Blocks blocks = geqrf(work.view(), tau.data());

  // Apply H_0 ... H_{k-1} to the identity columns k..m.
  Matrix q(m, m - k);
  for (index_t j = 0; j < m - k; ++j) q(k + j, j) = 1.0;
  apply_q(work.view(), tau.data(), blocks, q.view(), false);
  return q;
}

}  // namespace hatrix::la
