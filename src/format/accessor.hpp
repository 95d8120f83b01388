#pragma once
/// \file accessor.hpp
/// \brief Uniform block access to the matrix being compressed.
///
/// The HSS and BLR builders only ever ask for sub-blocks and scattered
/// (row-set x column-set) gathers. A DenseAccessor serves them from an
/// explicit matrix (tests, small problems); a KernelAccessor evaluates the
/// Green's function on demand so large problems never materialize N^2
/// entries.

#include <vector>

#include "kernels/kernel_matrix.hpp"
#include "linalg/matrix.hpp"

namespace hatrix::fmt {

using la::index_t;
using la::Matrix;

/// Read-only block access to a (symmetric) N x N matrix.
class BlockAccessor {
 public:
  virtual ~BlockAccessor() = default;

  /// Matrix dimension N.
  [[nodiscard]] virtual index_t size() const = 0;

  /// Fill `out` with A([row0, row0+out.rows) x [col0, col0+out.cols)).
  virtual void fill_block(index_t row0, index_t col0, la::MatrixView out) const = 0;

  /// Gather A(rows, cols) for arbitrary index sets. Throws hatrix::Error on
  /// an index outside [0, size()).
  [[nodiscard]] virtual Matrix gather(const std::vector<index_t>& rows,
                                      const std::vector<index_t>& cols) const = 0;

  /// Contiguous block as a new matrix.
  [[nodiscard]] Matrix block(index_t row0, index_t col0, index_t rows,
                             index_t cols) const {
    Matrix out(rows, cols);
    fill_block(row0, col0, out.view());
    return out;
  }
};

/// Accessor over an explicit dense matrix (not owned).
class DenseAccessor final : public BlockAccessor {
 public:
  /// Wrap a dense matrix view; the storage must outlive the accessor.
  explicit DenseAccessor(la::ConstMatrixView a) : a_(a) {}

  /// \copydoc BlockAccessor::size
  [[nodiscard]] index_t size() const override { return a_.rows; }
  /// \copydoc BlockAccessor::fill_block
  void fill_block(index_t row0, index_t col0, la::MatrixView out) const override;
  /// \copydoc BlockAccessor::gather
  [[nodiscard]] Matrix gather(const std::vector<index_t>& rows,
                              const std::vector<index_t>& cols) const override;

 private:
  la::ConstMatrixView a_;
};

/// Accessor that evaluates a kernel matrix block by block (matrix-free).
class KernelAccessor final : public BlockAccessor {
 public:
  /// Wrap a kernel matrix; it must outlive the accessor.
  explicit KernelAccessor(const kernels::KernelMatrix& km) : km_(&km) {}

  /// \copydoc BlockAccessor::size
  [[nodiscard]] index_t size() const override { return km_->size(); }
  /// \copydoc BlockAccessor::fill_block
  void fill_block(index_t row0, index_t col0, la::MatrixView out) const override;
  /// \copydoc BlockAccessor::gather
  [[nodiscard]] Matrix gather(const std::vector<index_t>& rows,
                              const std::vector<index_t>& cols) const override;

 private:
  const kernels::KernelMatrix* km_;
};

}  // namespace hatrix::fmt
