#include "kernels/kernel_matrix.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace hatrix::kernels {

using la::index_t;

KernelMatrix::KernelMatrix(const Kernel& kernel, const std::vector<geom::Point>& points,
                           double diag_shift)
    : kernel_(&kernel), diag_shift_(diag_shift) {
  x_.reserve(points.size());
  y_.reserve(points.size());
  z_.reserve(points.size());
  for (const geom::Point& p : points) {
    x_.push_back(p[0]);
    y_.push_back(p[1]);
    z_.push_back(p[2]);
  }
}

double KernelMatrix::entry(index_t i, index_t j) const {
  double v = 0.0;
  fill_block(i, j, la::MatrixView{&v, 1, 1, 1});
  return v;
}

void KernelMatrix::fill_block(index_t row0, index_t col0, la::MatrixView out) const {
  HATRIX_CHECK(row0 >= 0 && col0 >= 0 && row0 + out.rows <= size() &&
                   col0 + out.cols <= size(),
               "kernel block out of range");
  kernel_->fill(coords(row0), coords(col0), out);
  if (diag_shift_ == 0.0) return;
  // Global diagonal entries d = row0 + i = col0 + j inside the block.
  const index_t lo = std::max(row0, col0);
  const index_t hi = std::min(row0 + out.rows, col0 + out.cols);
  for (index_t d = lo; d < hi; ++d) out(d - row0, d - col0) += diag_shift_;
}

void KernelMatrix::gather(const std::vector<index_t>& rows,
                          const std::vector<index_t>& cols, la::MatrixView out) const {
  const auto m = static_cast<index_t>(rows.size());
  const auto n = static_cast<index_t>(cols.size());
  HATRIX_CHECK(out.rows == m && out.cols == n, "gather output shape mismatch");
  // Pack the selected points as [x | y | z] for the row set, then the
  // column set, checking every index on the way.
  std::vector<double> packed(static_cast<std::size_t>(3 * (m + n)));
  auto pack = [&](const std::vector<index_t>& idx, double* dst) {
    const auto len = static_cast<index_t>(idx.size());
    for (index_t k = 0; k < len; ++k) {
      const index_t p = idx[static_cast<std::size_t>(k)];
      HATRIX_CHECK(p >= 0 && p < size(), "kernel gather index out of range");
      const auto s = static_cast<std::size_t>(p);
      dst[k] = x_[s];
      dst[len + k] = y_[s];
      dst[2 * len + k] = z_[s];
    }
    return Coords{dst, dst + len, dst + 2 * len};
  };
  const Coords rc = pack(rows, packed.data());
  const Coords cc = pack(cols, packed.data() + 3 * m);
  kernel_->fill(rc, cc, out);
  if (diag_shift_ == 0.0) return;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      if (rows[static_cast<std::size_t>(i)] == cols[static_cast<std::size_t>(j)])
        out(i, j) += diag_shift_;
}

la::Matrix KernelMatrix::block(index_t row0, index_t col0, index_t rows,
                               index_t cols) const {
  la::Matrix out(rows, cols);
  fill_block(row0, col0, out.view());
  return out;
}

la::Matrix KernelMatrix::dense() const { return block(0, 0, size(), size()); }

void KernelMatrix::matvec(const std::vector<double>& x, std::vector<double>& y) const {
  const index_t n = size();
  HATRIX_CHECK(static_cast<index_t>(x.size()) == n, "matvec dimension mismatch");
  y.assign(static_cast<std::size_t>(n), 0.0);
  constexpr index_t kPanel = 512;
  la::Matrix panel(std::min(kPanel, n), n);
  for (index_t r0 = 0; r0 < n; r0 += kPanel) {
    const index_t m = std::min(kPanel, n - r0);
    la::MatrixView p = panel.block(0, 0, m, n);
    fill_block(r0, 0, p);
    la::gemv(1.0, p, la::Trans::No, x.data(), 0.0, y.data() + r0);
  }
}

}  // namespace hatrix::kernels
