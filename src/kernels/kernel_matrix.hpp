#pragma once
/// \file kernel_matrix.hpp
/// \brief Lazy kernel-matrix generator.
///
/// Presents A_ij = K(p_i, p_j) (+ optional diagonal shift) over a tree-
/// ordered point set without materializing the full dense matrix. HSS
/// builders request blocks on demand, and the accuracy benches compute
/// A_dense * b in streamed row panels, so N = 65,536 never allocates N^2
/// doubles. Every entry, whether it comes from `entry`, `fill_block` or
/// `gather`, is one `Kernel::fill` over structure-of-arrays coordinates, so
/// the three agree bit for bit.

#include <vector>

#include "geometry/cluster_tree.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"

namespace hatrix::kernels {

class KernelMatrix {
 public:
  /// `points` must already be in cluster-tree order. `diag_shift` is added
  /// to every diagonal entry (0 keeps the pure Green's function; a positive
  /// shift regularizes kernels that are only conditionally positive
  /// definite on a given geometry).
  KernelMatrix(const Kernel& kernel, const std::vector<geom::Point>& points,
               double diag_shift = 0.0);

  [[nodiscard]] la::index_t size() const { return static_cast<la::index_t>(x_.size()); }

  /// Single entry A(i, j): a 1 x 1 block.
  [[nodiscard]] double entry(la::index_t i, la::index_t j) const;

  /// Fill `out` with the block A([row0, row0+out.rows), [col0, col0+out.cols)).
  void fill_block(la::index_t row0, la::index_t col0, la::MatrixView out) const;

  /// Fill `out` (rows.size() x cols.size()) with A(rows, cols) for arbitrary
  /// index sets. Throws hatrix::Error on an index outside [0, size()).
  void gather(const std::vector<la::index_t>& rows, const std::vector<la::index_t>& cols,
              la::MatrixView out) const;

  /// The block as a new matrix.
  [[nodiscard]] la::Matrix block(la::index_t row0, la::index_t col0,
                                 la::index_t rows, la::index_t cols) const;

  /// Full dense matrix (only sensible for modest N; tests and reference
  /// paths).
  [[nodiscard]] la::Matrix dense() const;

  /// y = A x computed in streamed row panels; O(N) memory.
  void matvec(const std::vector<double>& x, std::vector<double>& y) const;

 private:
  [[nodiscard]] Coords coords(la::index_t i0) const {
    const auto o = static_cast<std::size_t>(i0);
    return {x_.data() + o, y_.data() + o, z_.data() + o};
  }

  const Kernel* kernel_;
  std::vector<double> x_, y_, z_;  // the points, tree order, one array per axis
  double diag_shift_;
};

}  // namespace hatrix::kernels
