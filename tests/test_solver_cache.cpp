// Unit coverage of the keyed factorization cache: key construction and
// fingerprint sensitivity, hit/miss/eviction accounting, exception handling
// in the builder, and the FactoredOperator wrapper itself.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "hatrix/solver_cache.hpp"

namespace hatrix::driver {
namespace {

using la::index_t;

fmt::HSSMatrix small_hss(std::uint64_t seed = 5) {
  Rng rng(seed);
  return fmt::make_random_spd_hss(256, 64, 12, rng);
}

SolverKey key_for(const std::string& kernel) {
  SolverKey k;
  k.kernel = kernel;
  k.n = 256;
  return k;
}

TEST(GeometryFingerprint, SensitiveToOrderAndPerturbation) {
  Rng rng(17);
  geom::Domain d = geom::random2d(32, rng);
  const std::uint64_t base = geometry_fingerprint(d.points);

  // Same points, same order: identical.
  EXPECT_EQ(geometry_fingerprint(d.points), base);

  // Swapping two points changes the fingerprint (it is order-sensitive —
  // the cluster tree depends on input order).
  std::vector<geom::Point> swapped = d.points;
  std::swap(swapped[3], swapped[19]);
  EXPECT_NE(geometry_fingerprint(swapped), base);

  // A one-ulp-scale perturbation of one coordinate changes it.
  std::vector<geom::Point> nudged = d.points;
  nudged[7][0] += 1e-15;
  EXPECT_NE(geometry_fingerprint(nudged), base);

  // A different point count changes it.
  std::vector<geom::Point> shorter(d.points.begin(), d.points.end() - 1);
  EXPECT_NE(geometry_fingerprint(shorter), base);
}

TEST(SolverKey, EqualityAndHashTrackAllFields) {
  Rng rng(23);
  geom::Domain d = geom::random2d(64, rng);
  fmt::HSSOptions opts{.leaf_size = 32, .max_rank = 16, .tol = 1e-8};
  const SolverKey a = make_solver_key("yukawa", d.points, opts);
  const SolverKey b = make_solver_key("yukawa", d.points, opts);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(SolverKeyHash{}(a), SolverKeyHash{}(b));

  SolverKey c = a;
  c.kernel = "laplace";
  EXPECT_FALSE(a == c);

  opts.tol = 1e-6;
  const SolverKey d2 = make_solver_key("yukawa", d.points, opts);
  EXPECT_FALSE(a == d2);

  opts.tol = 1e-8;
  opts.max_rank = 20;
  const SolverKey e = make_solver_key("yukawa", d.points, opts);
  EXPECT_FALSE(a == e);
}

TEST(SolverKey, GuardOptionsThatChangeTheBuildAreKeyed) {
  // max_sample_cols changes which basis the guarded build settles on, so a
  // request differing only in it must not hit an entry built with another
  // value.
  Rng rng(24);
  geom::Domain d = geom::random2d(64, rng);
  const fmt::HSSOptions base{.leaf_size = 32, .max_rank = 16, .sample_cols = 16,
                             .guard_tol = 1e-6};
  const SolverKey a = make_solver_key("yukawa", d.points, base);

  fmt::HSSOptions capped = base;
  capped.max_sample_cols = 48;
  const SolverKey b = make_solver_key("yukawa", d.points, capped);
  EXPECT_FALSE(a == b);
  EXPECT_NE(SolverKeyHash{}(a), SolverKeyHash{}(b));
}

TEST(SolverCache, MissThenHitReturnsSameOperator) {
  SolverCache cache(2);
  int builds = 0;
  auto build = [&](fmt::HSSBuildReport& rep) {
    ++builds;
    rep.max_samples = 99;  // smoke-check that the report is preserved
    return small_hss();
  };

  auto first = cache.get_or_build(key_for("a"), build);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(first->build_report().max_samples, 99);

  auto second = cache.get_or_build(key_for("a"), build);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(SolverCache, EvictsLeastRecentlyUsedAtCapacity) {
  SolverCache cache(2);
  int builds = 0;
  auto build = [&](fmt::HSSBuildReport&) {
    ++builds;
    return small_hss();
  };

  cache.get_or_build(key_for("a"), build);
  cache.get_or_build(key_for("b"), build);
  cache.get_or_build(key_for("a"), build);  // touch "a": "b" is now coldest
  EXPECT_EQ(builds, 2);

  cache.get_or_build(key_for("c"), build);  // evicts "b"
  EXPECT_EQ(builds, 3);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2u);

  cache.get_or_build(key_for("a"), build);  // still resident
  EXPECT_EQ(builds, 3);
  cache.get_or_build(key_for("b"), build);  // was evicted: rebuild
  EXPECT_EQ(builds, 4);
}

TEST(SolverCache, EvictedOperatorStaysAliveThroughSharedPtr) {
  SolverCache cache(1);
  auto build = [&](fmt::HSSBuildReport&) { return small_hss(); };
  auto a = cache.get_or_build(key_for("a"), build);
  cache.get_or_build(key_for("b"), build);  // evicts "a" from the cache
  EXPECT_EQ(cache.stats().evictions, 1);
  // The caller's reference keeps the factorization usable after eviction.
  Rng rng(31);
  std::vector<double> b = rng.normal_vector(256);
  std::vector<double> x = a->factorization().solve(b);
  EXPECT_EQ(static_cast<index_t>(x.size()), a->matrix().size());
}

TEST(SolverCache, BuilderExceptionPropagatesAndRetrySucceeds) {
  SolverCache cache(2);
  int attempts = 0;
  auto flaky = [&](fmt::HSSBuildReport&) -> fmt::HSSMatrix {
    if (++attempts == 1) throw std::runtime_error("builder failed");
    return small_hss();
  };

  EXPECT_THROW(cache.get_or_build(key_for("a"), flaky), std::runtime_error);
  // The failed entry must not poison the key: a retry rebuilds.
  auto op = cache.get_or_build(key_for("a"), flaky);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(SolverCache, ClearEmptiesResidency) {
  SolverCache cache(4);
  auto build = [&](fmt::HSSBuildReport&) { return small_hss(); };
  cache.get_or_build(key_for("a"), build);
  cache.get_or_build(key_for("b"), build);
  EXPECT_EQ(cache.stats().size, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  int builds = 0;
  cache.get_or_build(key_for("a"), [&](fmt::HSSBuildReport&) {
    ++builds;
    return small_hss();
  });
  EXPECT_EQ(builds, 1);
}

TEST(FactoredOperator, SolvesAgainstItsMatrix) {
  FactoredOperator op(small_hss(41));
  Rng rng(43);
  std::vector<double> x_true = rng.normal_vector(256);
  std::vector<double> b(256);
  op.matrix().matvec(x_true, b);
  std::vector<double> x = op.factorization().solve(b);
  double err = 0.0, nrm = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err += (x[i] - x_true[i]) * (x[i] - x_true[i]);
    nrm += x_true[i] * x_true[i];
  }
  EXPECT_LT(std::sqrt(err / nrm), 1e-10);
}

}  // namespace
}  // namespace hatrix::driver
