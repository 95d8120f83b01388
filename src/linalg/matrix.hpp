#pragma once
/// \file matrix.hpp
/// \brief Dense column-major FP64 matrix types and lightweight views.
///
/// The library is self-contained: no external BLAS/LAPACK. Every dense
/// kernel operates on these types. `Matrix` owns its storage; the view
/// structs reference sub-blocks with a leading dimension, which is what
/// blocked factorization algorithms need.

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hatrix::la {

using index_t = std::int64_t;

class Matrix;

/// Live/peak bytes currently held by Matrix storage across all threads.
/// getrusage's ru_maxrss is monotone (an allocator rarely returns pages), so
/// the early-release measurements track allocations at the source instead:
/// every Matrix buffer is counted in on allocate and out on deallocate.
[[nodiscard]] std::int64_t matrix_bytes_live();
/// High-water mark of matrix_bytes_live() since the last reset.
[[nodiscard]] std::int64_t matrix_bytes_peak();
/// Reset the peak to the current live count (start of a measured region).
void reset_matrix_peak();

namespace detail {

/// Counters behind the free functions above (defined in matrix.cpp).
extern std::atomic<std::int64_t> g_matrix_live;
extern std::atomic<std::int64_t> g_matrix_peak;

/// Minimal std::vector allocator that maintains the live/peak counters.
template <class T>
struct TrackingAllocator {
  using value_type = T;
  TrackingAllocator() = default;
  template <class U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    const auto bytes = static_cast<std::int64_t>(n * sizeof(T));
    const std::int64_t live =
        g_matrix_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t peak = g_matrix_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_matrix_peak.compare_exchange_weak(peak, live,
                                                std::memory_order_relaxed)) {
    }
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    g_matrix_live.fetch_sub(static_cast<std::int64_t>(n * sizeof(T)),
                            std::memory_order_relaxed);
    std::allocator<T>{}.deallocate(p, n);
  }
  friend bool operator==(const TrackingAllocator&, const TrackingAllocator&) {
    return true;
  }
  friend bool operator!=(const TrackingAllocator&, const TrackingAllocator&) {
    return false;
  }
};

}  // namespace detail

/// Non-owning read-only view of a column-major block.
struct ConstMatrixView {
  const double* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;  ///< leading dimension (stride between columns)

  const double& operator()(index_t i, index_t j) const { return data[i + j * ld]; }

  /// Sub-block view [i0, i0+m) x [j0, j0+n).
  [[nodiscard]] ConstMatrixView block(index_t i0, index_t j0, index_t m,
                                      index_t n) const {
    HATRIX_CHECK(i0 >= 0 && j0 >= 0 && i0 + m <= rows && j0 + n <= cols,
                 "block out of range");
    return {data + i0 + j0 * ld, m, n, ld};
  }
};

/// Non-owning mutable view of a column-major block.
struct MatrixView {
  double* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  double& operator()(index_t i, index_t j) const { return data[i + j * ld]; }

  operator ConstMatrixView() const { return {data, rows, cols, ld}; }

  [[nodiscard]] MatrixView block(index_t i0, index_t j0, index_t m,
                                 index_t n) const {
    HATRIX_CHECK(i0 >= 0 && j0 >= 0 && i0 + m <= rows && j0 + n <= cols,
                 "block out of range");
    return {data + i0 + j0 * ld, m, n, ld};
  }
};

/// Owning dense column-major FP64 matrix.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized r x c matrix.
  Matrix(index_t r, index_t c)
      : rows_(r), cols_(c), data_(static_cast<std::size_t>(r * c), 0.0) {
    HATRIX_CHECK(r >= 0 && c >= 0, "negative dimension");
  }

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  // The implicit moves would steal the buffers but copy rows_/cols_, leaving
  // the source with nonzero dimensions over a null buffer — view() on it
  // would then hand out a writable null view (the release-hook poison path
  // fills whatever view it is given). Reset the source to a genuine empty
  // matrix.
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    data_ = std::move(other.data_);
    return *this;
  }
  ~Matrix() = default;

  static Matrix identity(index_t n);
  /// i.i.d. standard normal entries.
  static Matrix random_normal(Rng& rng, index_t r, index_t c);
  /// Random symmetric positive definite matrix (GGᵀ + n·I shift).
  static Matrix random_spd(Rng& rng, index_t n);
  /// Deep copy of an arbitrary view.
  static Matrix from_view(ConstMatrixView v);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  /// Storage footprint in bytes, used by the communication and memory models.
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(double));
  }

  double& operator()(index_t i, index_t j) { return data_[static_cast<std::size_t>(i + j * rows_)]; }
  const double& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }

  double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  [[nodiscard]] MatrixView view() { return {data_.data(), rows_, cols_, rows_}; }
  [[nodiscard]] ConstMatrixView view() const {
    return {data_.data(), rows_, cols_, rows_};
  }
  operator MatrixView() { return view(); }
  operator ConstMatrixView() const { return view(); }

  [[nodiscard]] MatrixView block(index_t i0, index_t j0, index_t m, index_t n) {
    return view().block(i0, j0, m, n);
  }
  [[nodiscard]] ConstMatrixView block(index_t i0, index_t j0, index_t m, index_t n) const {
    return view().block(i0, j0, m, n);
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double, detail::TrackingAllocator<double>> data_;
};

/// Deep copy helper (dst and src must have equal shapes).
void copy(ConstMatrixView src, MatrixView dst);

/// Return the transpose as a new matrix.
Matrix transpose(ConstMatrixView a);

/// Stack views horizontally: [A, B, ...]. All must share the row count.
Matrix hconcat(const std::vector<ConstMatrixView>& parts);

/// dst(i, :) = src(perm[i], :): gathers rows by index.
Matrix gather_rows(ConstMatrixView src, const std::vector<index_t>& rows);

/// dst(:, j) = src(:, perm[j]): gathers columns by index.
Matrix gather_cols(ConstMatrixView src, const std::vector<index_t>& cols);

/// Set every entry of the view to `value`.
void fill(MatrixView a, double value);

}  // namespace hatrix::la
