#include "format/accessor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hatrix::fmt {

void DenseAccessor::fill_block(index_t row0, index_t col0, la::MatrixView out) const {
  la::copy(a_.block(row0, col0, out.rows, out.cols), out);
}

Matrix DenseAccessor::gather(const std::vector<index_t>& rows,
                             const std::vector<index_t>& cols) const {
  auto below = [](index_t n) { return [n](index_t p) { return p >= 0 && p < n; }; };
  HATRIX_CHECK(std::all_of(rows.begin(), rows.end(), below(a_.rows)) &&
                   std::all_of(cols.begin(), cols.end(), below(a_.cols)),
               "dense gather index out of range");
  Matrix out(static_cast<index_t>(rows.size()), static_cast<index_t>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (std::size_t i = 0; i < rows.size(); ++i)
      out(static_cast<index_t>(i), static_cast<index_t>(j)) = a_(rows[i], cols[j]);
  return out;
}

void KernelAccessor::fill_block(index_t row0, index_t col0, la::MatrixView out) const {
  km_->fill_block(row0, col0, out);
}

Matrix KernelAccessor::gather(const std::vector<index_t>& rows,
                              const std::vector<index_t>& cols) const {
  Matrix out(static_cast<index_t>(rows.size()), static_cast<index_t>(cols.size()));
  km_->gather(rows, cols, out.view());
  return out;
}

}  // namespace hatrix::fmt
