#include "linalg/matrix.hpp"

namespace hatrix::la {

namespace detail {
std::atomic<std::int64_t> g_matrix_live{0};
std::atomic<std::int64_t> g_matrix_peak{0};
}  // namespace detail

std::int64_t matrix_bytes_live() {
  return detail::g_matrix_live.load(std::memory_order_relaxed);
}

std::int64_t matrix_bytes_peak() {
  return detail::g_matrix_peak.load(std::memory_order_relaxed);
}

void reset_matrix_peak() {
  detail::g_matrix_peak.store(detail::g_matrix_live.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

Matrix Matrix::identity(index_t n) {
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = 1.0;
  return a;
}

Matrix Matrix::random_normal(Rng& rng, index_t r, index_t c) {
  Matrix a(r, c);
  for (index_t j = 0; j < c; ++j)
    for (index_t i = 0; i < r; ++i) a(i, j) = rng.normal();
  return a;
}

Matrix Matrix::random_spd(Rng& rng, index_t n) {
  Matrix g = random_normal(rng, n, n);
  Matrix a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (index_t k = 0; k < n; ++k) s += g(i, k) * g(j, k);
      a(i, j) = s;
    }
  // Diagonal shift guarantees positive definiteness independent of the draw.
  for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

Matrix Matrix::from_view(ConstMatrixView v) {
  Matrix a(v.rows, v.cols);
  copy(v, a.view());
  return a;
}

void copy(ConstMatrixView src, MatrixView dst) {
  HATRIX_CHECK(src.rows == dst.rows && src.cols == dst.cols, "copy shape mismatch");
  for (index_t j = 0; j < src.cols; ++j)
    for (index_t i = 0; i < src.rows; ++i) dst(i, j) = src(i, j);
}

Matrix transpose(ConstMatrixView a) {
  Matrix t(a.cols, a.rows);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) t(j, i) = a(i, j);
  return t;
}

Matrix hconcat(const std::vector<ConstMatrixView>& parts) {
  HATRIX_CHECK(!parts.empty(), "hconcat of nothing");
  const index_t rows = parts.front().rows;
  index_t cols = 0;
  for (const auto& p : parts) {
    HATRIX_CHECK(p.rows == rows, "hconcat row mismatch");
    cols += p.cols;
  }
  Matrix out(rows, cols);
  index_t at = 0;
  for (const auto& p : parts) {
    copy(p, out.block(0, at, p.rows, p.cols));
    at += p.cols;
  }
  return out;
}

Matrix gather_rows(ConstMatrixView src, const std::vector<index_t>& rows) {
  Matrix out(static_cast<index_t>(rows.size()), src.cols);
  for (index_t j = 0; j < src.cols; ++j)
    for (std::size_t i = 0; i < rows.size(); ++i)
      out(static_cast<index_t>(i), j) = src(rows[i], j);
  return out;
}

Matrix gather_cols(ConstMatrixView src, const std::vector<index_t>& cols) {
  Matrix out(src.rows, static_cast<index_t>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (index_t i = 0; i < src.rows; ++i)
      out(i, static_cast<index_t>(j)) = src(i, cols[j]);
  return out;
}

void fill(MatrixView a, double value) {
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) a(i, j) = value;
}

}  // namespace hatrix::la
