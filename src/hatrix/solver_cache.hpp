#pragma once
/// \file solver_cache.hpp
/// \brief Keyed cache of HSS-ULV factorizations ("solve as a service").
///
/// A factorization is the expensive part of a direct solve; the solves that
/// follow are O(N·rank). Workloads like kriging hyperparameter sweeps or
/// repeated posterior draws re-request the same (kernel, geometry,
/// compression parameters) operator over and over — without a cache every
/// request pays the full construct + factor cost again. SolverCache keys a
/// shared, immutable FactoredOperator by everything that determines the
/// factorization bit-for-bit:
///
///   kernel id (name + parameters + nugget) x geometry fingerprint x
///   HSSOptions (leaf size, rank cap, tolerances, sample size and cap,
///   sampling seed).
///
/// Construction is deterministic given that key (per-node RNG streams), so
/// two requests with equal keys would produce identical factorizations —
/// the cache simply hands out the one already built.
///
/// Thread safety: all members are safe to call concurrently. Distinct keys
/// build in parallel; concurrent requests for the same key block on one
/// build and then share the result. The returned FactoredOperator is
/// immutable (see HSSULV's thread-safety contract), so any number of
/// clients may solve against it simultaneously.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "format/hss.hpp"
#include "format/hss_builder_tasks.hpp"
#include "geometry/domain.hpp"
#include "ulv/hss_ulv.hpp"

namespace hatrix::driver {

/// Order-sensitive fingerprint of a point set (the tree-ordered geometry the
/// kernel matrix is evaluated on). Two geometries with equal fingerprints
/// are treated as the same; the hash mixes every coordinate's bit pattern,
/// so any reordering or perturbation changes it.
std::uint64_t geometry_fingerprint(const std::vector<geom::Point>& points);

/// Everything that determines an HSS-ULV factorization bit-for-bit.
struct SolverKey {
  /// Kernel identity including parameters and regularization, e.g.
  /// "matern(sigma=1,mu=0.03,rho=0.5)+nugget=1e-4". The caller owns the
  /// encoding; equal strings must mean equal matrix entries.
  std::string kernel;
  std::uint64_t geometry = 0;      ///< geometry_fingerprint of the ordered points
  la::index_t n = 0;               ///< matrix dimension
  la::index_t leaf_size = 0;
  la::index_t max_rank = 0;
  double tol = 0.0;
  double guard_tol = 0.0;
  la::index_t sample_cols = 0;
  la::index_t max_sample_cols = 0;
  std::uint64_t seed = 0;

  bool operator==(const SolverKey&) const = default;
};

/// Hash for SolverKey (unordered_map support).
struct SolverKeyHash {
  std::size_t operator()(const SolverKey& k) const;
};

/// Convenience: assemble the key for a kernel matrix on tree-ordered points
/// compressed with `opts` under weak admissibility.
SolverKey make_solver_key(const std::string& kernel_id,
                          const std::vector<geom::Point>& points,
                          const fmt::HSSOptions& opts);

/// An HSS matrix pinned together with its ULV factorization. HSSULV holds a
/// pointer to the matrix it factored, so the pair must live (and stay put)
/// together: FactoredOperator is non-copyable and non-movable and is always
/// handed out through shared_ptr<const ...>. Immutable once constructed —
/// share freely across threads.
class FactoredOperator {
 public:
  /// Takes ownership of the built matrix and factorizes it in place.
  /// Throws hatrix::Error if the matrix is not SPD on the compressed
  /// representation.
  explicit FactoredOperator(fmt::HSSMatrix h, fmt::HSSBuildReport report = {})
      : h_(std::move(h)), report_(report), f_(ulv::HSSULV::factorize(h_)) {}

  FactoredOperator(const FactoredOperator&) = delete;
  FactoredOperator& operator=(const FactoredOperator&) = delete;
  FactoredOperator(FactoredOperator&&) = delete;
  FactoredOperator& operator=(FactoredOperator&&) = delete;

  [[nodiscard]] const fmt::HSSMatrix& matrix() const { return h_; }
  [[nodiscard]] const ulv::HSSULV& factorization() const { return f_; }
  [[nodiscard]] const fmt::HSSBuildReport& build_report() const { return report_; }

 private:
  fmt::HSSMatrix h_;
  fmt::HSSBuildReport report_;
  ulv::HSSULV f_;  // declared after h_: factorized from the settled matrix
};

/// Cache statistics snapshot.
struct SolverCacheStats {
  std::int64_t hits = 0;       ///< requests served by an existing entry
  std::int64_t misses = 0;     ///< requests that triggered a build
  std::int64_t evictions = 0;  ///< entries dropped by the LRU policy
  std::size_t size = 0;        ///< entries currently resident
};

/// Thread-safe LRU cache of factorizations keyed by SolverKey.
class SolverCache {
 public:
  /// Builds the compressed matrix for a key on a miss. Runs outside the
  /// cache-wide lock (only same-key requests wait on it); may throw, in
  /// which case the failed entry is removed and the exception propagates to
  /// every waiter of that key.
  using Builder = std::function<fmt::HSSMatrix(fmt::HSSBuildReport& report)>;

  /// `capacity` bounds resident entries; least-recently-used complete
  /// entries are evicted first (entries still building are never evicted).
  explicit SolverCache(std::size_t capacity = 8);

  /// The factorization for `key`, building it via `build` exactly once per
  /// resident key. Evicted keys rebuild on next request; clients holding
  /// the shared_ptr keep evicted operators alive until they drop it.
  std::shared_ptr<const FactoredOperator> get_or_build(const SolverKey& key,
                                                       const Builder& build);

  /// Current hit/miss/eviction counters.
  [[nodiscard]] SolverCacheStats stats() const;

  /// Drop every resident entry (outstanding shared_ptrs stay valid).
  void clear();

 private:
  struct Entry {
    std::mutex build_mu;  ///< serializes the one build of this entry
    std::shared_ptr<const FactoredOperator> op;  ///< null until built
  };

  void evict_overflow_locked();

  std::size_t capacity_;
  mutable std::mutex mu_;  ///< guards map_, lru_, counters
  std::unordered_map<SolverKey, std::shared_ptr<Entry>, SolverKeyHash> map_;
  std::list<SolverKey> lru_;  ///< most recently used at the front
  std::int64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace hatrix::driver
