#include "format/hss.hpp"

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace hatrix::fmt {

HSSMatrix::HSSMatrix(index_t n, int max_level) : n_(n), max_level_(max_level) {
  HATRIX_CHECK(n > 0 && max_level >= 0, "bad HSS dimensions");
  nodes_.resize(static_cast<std::size_t>(max_level) + 1);
  couplings_.resize(static_cast<std::size_t>(max_level) + 1);
  for (int l = 0; l <= max_level; ++l) {
    nodes_[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(num_nodes(l)));
    if (l >= 1)
      couplings_[static_cast<std::size_t>(l)].resize(
          static_cast<std::size_t>(num_pairs(l)));
  }
}

HSSMatrix::Node& HSSMatrix::node(int level, index_t i) {
  HATRIX_CHECK(level >= 0 && level <= max_level_, "level out of range");
  HATRIX_CHECK(i >= 0 && i < num_nodes(level), "node out of range");
  return nodes_[static_cast<std::size_t>(level)][static_cast<std::size_t>(i)];
}

const HSSMatrix::Node& HSSMatrix::node(int level, index_t i) const {
  return const_cast<HSSMatrix*>(this)->node(level, i);
}

Matrix& HSSMatrix::coupling(int level, index_t pair) {
  HATRIX_CHECK(level >= 1 && level <= max_level_, "coupling level out of range");
  HATRIX_CHECK(pair >= 0 && pair < num_pairs(level), "coupling pair out of range");
  return couplings_[static_cast<std::size_t>(level)][static_cast<std::size_t>(pair)];
}

const Matrix& HSSMatrix::coupling(int level, index_t pair) const {
  return const_cast<HSSMatrix*>(this)->coupling(level, pair);
}

void HSSMatrix::matvec(const std::vector<double>& x, std::vector<double>& y) const {
  HATRIX_CHECK(static_cast<index_t>(x.size()) == n_, "matvec dimension mismatch");
  y.assign(static_cast<std::size_t>(n_), 0.0);

  const int L = max_level_;
  // Up-sweep: xc[l][i] = Ũ_{l,i}ᵀ x restricted to the node's interval.
  std::vector<std::vector<std::vector<double>>> xc(static_cast<std::size_t>(L) + 1);
  for (int l = L; l >= 0; --l) {
    xc[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(num_nodes(l)));
    for (index_t i = 0; i < num_nodes(l); ++i) {
      const Node& nd = node(l, i);
      if (nd.basis.empty() && nd.rank == 0) continue;
      auto& out = xc[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
      out.assign(static_cast<std::size_t>(nd.rank), 0.0);
      if (l == L) {
        la::gemv(1.0, nd.basis.view(), la::Trans::Yes,
                 x.data() + nd.begin, 0.0, out.data());
      } else {
        const auto& c0 = xc[static_cast<std::size_t>(l) + 1][static_cast<std::size_t>(2 * i)];
        const auto& c1 = xc[static_cast<std::size_t>(l) + 1][static_cast<std::size_t>(2 * i + 1)];
        std::vector<double> stacked;
        stacked.reserve(c0.size() + c1.size());
        stacked.insert(stacked.end(), c0.begin(), c0.end());
        stacked.insert(stacked.end(), c1.begin(), c1.end());
        la::gemv(1.0, nd.basis.view(), la::Trans::Yes, stacked.data(), 0.0,
                 out.data());
      }
    }
  }

  // Couple siblings: yc[l][2t] += Sᵀ xc[2t+1], yc[l][2t+1] += S xc[2t].
  std::vector<std::vector<std::vector<double>>> yc(static_cast<std::size_t>(L) + 1);
  for (int l = 0; l <= L; ++l) {
    yc[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(num_nodes(l)));
    for (index_t i = 0; i < num_nodes(l); ++i)
      yc[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)].assign(
          static_cast<std::size_t>(node(l, i).rank), 0.0);
  }
  for (int l = 1; l <= L; ++l) {
    for (index_t t = 0; t < num_pairs(l); ++t) {
      const Matrix& s = coupling(l, t);
      if (s.empty()) continue;
      const auto& x0 = xc[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t)];
      const auto& x1 = xc[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t + 1)];
      auto& y0 = yc[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t)];
      auto& y1 = yc[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t + 1)];
      la::gemv(1.0, s.view(), la::Trans::No, x0.data(), 1.0, y1.data());
      la::gemv(1.0, s.view(), la::Trans::Yes, x1.data(), 1.0, y0.data());
    }
  }

  // Down-sweep: push coupled contributions back through the bases, then add
  // the dense diagonals at the leaves.
  for (int l = 0; l < L; ++l) {
    for (index_t i = 0; i < num_nodes(l); ++i) {
      const Node& nd = node(l, i);
      auto& self = yc[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
      if (self.empty() || nd.basis.empty()) continue;
      std::vector<double> stacked(static_cast<std::size_t>(nd.basis.rows()), 0.0);
      la::gemv(1.0, nd.basis.view(), la::Trans::No, self.data(), 0.0,
               stacked.data());
      auto& c0 = yc[static_cast<std::size_t>(l) + 1][static_cast<std::size_t>(2 * i)];
      auto& c1 = yc[static_cast<std::size_t>(l) + 1][static_cast<std::size_t>(2 * i + 1)];
      for (std::size_t k = 0; k < c0.size(); ++k) c0[k] += stacked[k];
      for (std::size_t k = 0; k < c1.size(); ++k) c1[k] += stacked[c0.size() + k];
    }
  }
  for (index_t i = 0; i < num_nodes(L); ++i) {
    const Node& nd = node(L, i);
    const auto& self = yc[static_cast<std::size_t>(L)][static_cast<std::size_t>(i)];
    if (!self.empty())
      la::gemv(1.0, nd.basis.view(), la::Trans::No, self.data(), 1.0,
               y.data() + nd.begin);
    la::gemv(1.0, nd.diag.view(), la::Trans::No, x.data() + nd.begin, 1.0,
             y.data() + nd.begin);
  }
}

Matrix HSSMatrix::full_basis(int level, index_t i) const {
  const Node& nd = node(level, i);
  if (level == max_level_) return nd.basis;
  Matrix b0 = full_basis(level + 1, 2 * i);
  Matrix b1 = full_basis(level + 1, 2 * i + 1);
  HATRIX_CHECK(!nd.basis.empty(), "internal node is missing its transfer basis");
  Matrix out(nd.block_size(), nd.rank);
  // blockdiag(b0, b1) * W, with W split into its top and bottom row groups.
  la::gemm(1.0, b0.view(), la::Trans::No,
           nd.basis.block(0, 0, b0.cols(), nd.rank), la::Trans::No, 0.0,
           out.block(0, 0, b0.rows(), nd.rank));
  la::gemm(1.0, b1.view(), la::Trans::No,
           nd.basis.block(b0.cols(), 0, b1.cols(), nd.rank), la::Trans::No, 0.0,
           out.block(b0.rows(), 0, b1.rows(), nd.rank));
  return out;
}

Matrix HSSMatrix::dense() const {
  Matrix a(n_, n_);
  const int L = max_level_;
  for (index_t i = 0; i < num_nodes(L); ++i) {
    const Node& nd = node(L, i);
    la::copy(nd.diag.view(), a.block(nd.begin, nd.begin, nd.block_size(), nd.block_size()));
  }
  for (int l = 1; l <= L; ++l) {
    for (index_t t = 0; t < num_pairs(l); ++t) {
      const Matrix& s = coupling(l, t);
      if (s.empty()) continue;
      const Node& n0 = node(l, 2 * t);
      const Node& n1 = node(l, 2 * t + 1);
      Matrix u0 = full_basis(l, 2 * t);
      Matrix u1 = full_basis(l, 2 * t + 1);
      // A(I1, I0) = Ũ1 S Ũ0ᵀ ; A(I0, I1) is its transpose.
      Matrix us = la::matmul(u1.view(), s.view());
      Matrix lower = la::matmul(us.view(), u0.view(), la::Trans::No, la::Trans::Yes);
      la::copy(lower.view(), a.block(n1.begin, n0.begin, n1.block_size(), n0.block_size()));
      Matrix upper = la::transpose(lower.view());
      la::copy(upper.view(), a.block(n0.begin, n1.begin, n0.block_size(), n1.block_size()));
    }
  }
  return a;
}

index_t HSSMatrix::max_rank_used() const {
  index_t r = 0;
  for (int l = 0; l <= max_level_; ++l)
    for (index_t i = 0; i < num_nodes(l); ++i) r = std::max(r, node(l, i).rank);
  return r;
}

std::int64_t HSSMatrix::memory_bytes() const {
  std::int64_t total = 0;
  for (int l = 0; l <= max_level_; ++l) {
    for (index_t i = 0; i < num_nodes(l); ++i) {
      const Node& nd = node(l, i);
      total += nd.basis.bytes() + nd.diag.bytes();
    }
    if (l >= 1)
      for (index_t t = 0; t < num_pairs(l); ++t) total += coupling(l, t).bytes();
  }
  return total;
}

}  // namespace hatrix::fmt
