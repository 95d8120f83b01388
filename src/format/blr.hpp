#pragma once
/// \file blr.hpp
/// \brief Flat BLR matrix (the LORAPO baseline's format).
///
/// Uniform tiling; every off-diagonal tile is compressed *individually*
/// (no shared bases, unlike HSS), diagonal tiles stay dense. LORAPO
/// runs a tile Cholesky on this format with adaptive per-tile ranks, which
/// is what gives it O(N^2) factorization complexity (Table 1).

#include <vector>

#include "format/accessor.hpp"
#include "lowrank/compress.hpp"

namespace hatrix::fmt {

/// Construction parameters of the flat BLR builder.
struct BLROptions {
  index_t tile_size = 2048;  ///< paper uses 2048/4096 for LORAPO (Table 2)
  index_t max_rank = 1024;   ///< per-tile rank cap
  double tol = 1e-8;         ///< adaptive-rank truncation tolerance
};

/// Symmetric flat BLR matrix: dense diagonal tiles, individually compressed
/// low-rank off-diagonal tiles (lower triangle stored).
class BLRMatrix {
 public:
  BLRMatrix() = default;
  /// Allocate the tile layout for an n x n matrix cut into num_tiles rows.
  BLRMatrix(index_t n, index_t num_tiles);

  /// Matrix dimension N.
  [[nodiscard]] index_t size() const { return n_; }
  /// Number of tile rows/columns.
  [[nodiscard]] index_t num_tiles() const { return nt_; }
  /// First global index of tile row i.
  [[nodiscard]] index_t tile_begin(index_t i) const { return i * n_ / nt_; }
  /// Number of rows in tile row i.
  [[nodiscard]] index_t tile_size(index_t i) const {
    return (i + 1) * n_ / nt_ - i * n_ / nt_;
  }

  /// Dense diagonal tile i.
  [[nodiscard]] Matrix& diag(index_t i);
  /// Dense diagonal tile i (read-only).
  [[nodiscard]] const Matrix& diag(index_t i) const;

  /// Low-rank off-diagonal tile (i, j), i > j (lower triangle; the matrix
  /// is symmetric).
  [[nodiscard]] lr::LowRank& tile(index_t i, index_t j);
  /// Low-rank off-diagonal tile (i, j), i > j (read-only).
  [[nodiscard]] const lr::LowRank& tile(index_t i, index_t j) const;

  /// y = A x through the compressed tiles.
  void matvec(const std::vector<double>& x, std::vector<double>& y) const;
  /// Materialize the represented dense matrix (tests / small problems).
  [[nodiscard]] Matrix dense() const;
  /// Total compressed storage in bytes.
  [[nodiscard]] std::int64_t memory_bytes() const;
  /// Largest tile rank (LORAPO's adaptive ranks: reported by benches).
  [[nodiscard]] index_t max_rank_used() const;

 private:
  index_t n_ = 0;
  index_t nt_ = 0;
  std::vector<Matrix> diags_;
  std::vector<lr::LowRank> tiles_;  // packed strict lower triangle
};

/// Build a symmetric BLR approximation with per-tile truncated-QR
/// compression at opts.tol (capped at opts.max_rank).
BLRMatrix build_blr(const BlockAccessor& acc, const BLROptions& opts);

/// Structure-only BLR skeleton: every off-diagonal tile reports `rank`
/// (clipped by the tile size) but no numerical data is allocated — tile
/// factors get 0 x rank shapes. For emitting costing-only LORAPO DAGs at
/// scales where the matrix itself is irrelevant.
BLRMatrix make_blr_skeleton(index_t n, index_t tile_size, index_t rank);

}  // namespace hatrix::fmt
