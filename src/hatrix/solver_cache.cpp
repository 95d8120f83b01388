#include "hatrix/solver_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace hatrix::driver {

namespace {

/// boost::hash_combine-style mixer.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

}  // namespace

std::uint64_t geometry_fingerprint(const std::vector<geom::Point>& points) {
  // FNV-1a over every coordinate's bit pattern, seeded with the count:
  // order-sensitive, so a permuted (differently tree-ordered) point set
  // fingerprints differently — as it must, since the matrix entries differ.
  std::uint64_t h = 1469598103934665603ULL;
  auto absorb = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  absorb(static_cast<std::uint64_t>(points.size()));
  for (const auto& p : points)
    for (std::size_t d = 0; d < 3; ++d) absorb(bits(p[d]));
  return h;
}

std::size_t SolverKeyHash::operator()(const SolverKey& k) const {
  std::uint64_t h = std::hash<std::string>{}(k.kernel);
  h = mix(h, k.geometry);
  h = mix(h, static_cast<std::uint64_t>(k.n));
  h = mix(h, static_cast<std::uint64_t>(k.leaf_size));
  h = mix(h, static_cast<std::uint64_t>(k.max_rank));
  h = mix(h, bits(k.tol));
  h = mix(h, bits(k.guard_tol));
  h = mix(h, static_cast<std::uint64_t>(k.sample_cols));
  h = mix(h, static_cast<std::uint64_t>(k.max_sample_cols));
  h = mix(h, k.seed);
  return static_cast<std::size_t>(h);
}

SolverKey make_solver_key(const std::string& kernel_id,
                          const std::vector<geom::Point>& points,
                          const fmt::HSSOptions& opts) {
  return SolverKey{.kernel = kernel_id,
                   .geometry = geometry_fingerprint(points),
                   .n = static_cast<la::index_t>(points.size()),
                   .leaf_size = opts.leaf_size,
                   .max_rank = opts.max_rank,
                   .tol = opts.tol,
                   .guard_tol = opts.guard_tol,
                   .sample_cols = opts.sample_cols,
                   .max_sample_cols = opts.max_sample_cols,
                   .seed = opts.seed};
}

SolverCache::SolverCache(std::size_t capacity) : capacity_(capacity) {
  HATRIX_CHECK(capacity >= 1, "solver cache needs capacity >= 1");
}

std::shared_ptr<const FactoredOperator> SolverCache::get_or_build(
    const SolverKey& key, const Builder& build) {
  std::shared_ptr<Entry> e;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      e = it->second;
      auto pos = std::find(lru_.begin(), lru_.end(), key);
      if (pos != lru_.end()) lru_.splice(lru_.begin(), lru_, pos);
    } else {
      ++misses_;
      e = std::make_shared<Entry>();
      map_.emplace(key, e);
      lru_.push_front(key);
    }
  }

  // Per-entry lock: one build per key; requests for other keys never wait
  // here. `op` itself is published under the cache-wide lock so eviction
  // can tell finished entries from in-flight ones.
  std::lock_guard<std::mutex> build_lock(e->build_mu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (e->op) return e->op;
  }

  std::shared_ptr<const FactoredOperator> op;
  try {
    fmt::HSSBuildReport report;
    fmt::HSSMatrix h = build(report);
    op = std::make_shared<const FactoredOperator>(std::move(h), report);
  } catch (...) {
    // Drop the failed entry so later requests retry; concurrent same-key
    // waiters (queued on build_mu) will find op unset and rebuild.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second == e) {
      map_.erase(it);
      lru_.remove(key);
    }
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    e->op = op;
    evict_overflow_locked();
  }
  return op;
}

void SolverCache::evict_overflow_locked() {
  // Walk from the cold end, skipping entries still building (their op is
  // published under mu_, so a null op here really means in-flight).
  auto it = lru_.end();
  while (map_.size() > capacity_ && it != lru_.begin()) {
    --it;
    auto mit = map_.find(*it);
    if (mit == map_.end()) {
      it = lru_.erase(it);
      continue;
    }
    if (!mit->second->op) continue;  // in-flight: never evict
    map_.erase(mit);
    it = lru_.erase(it);
    ++evictions_;
  }
}

SolverCacheStats SolverCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SolverCacheStats{.hits = hits_,
                          .misses = misses_,
                          .evictions = evictions_,
                          .size = map_.size()};
}

void SolverCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

}  // namespace hatrix::driver
