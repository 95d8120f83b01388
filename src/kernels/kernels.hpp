#pragma once
/// \file kernels.hpp
/// \brief Green's-function kernels from Table 3 of the paper.
///
/// Each kernel maps a pair of points to a matrix entry. The constants
/// default to the paper's values. All kernels are symmetric; the geometries
/// and constants used in the evaluation make the resulting matrices
/// symmetric positive definite (tests assert this).
///
/// Entries are produced a block at a time by `Kernel::fill`, one virtual
/// call per block over structure-of-arrays coordinates; the loop inside is
/// devirtualized and, for Yukawa and Matérn, vectorized through `vexp`.
/// `operator()` is the scalar libm reference the tests compare against.

#include <memory>
#include <string>

#include "geometry/domain.hpp"
#include "linalg/matrix.hpp"

namespace hatrix::kernels {

/// Structure-of-arrays view of a point set: point i is (x[i], y[i], z[i]).
struct Coords {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
};

/// e^x as the block loops evaluate it: Cody–Waite reduction x = k ln2 + r
/// with |r| <= ln2/2, a fixed degree-13 Taylor polynomial for e^r, and 2^k
/// assembled in the exponent bits. Branch-free, so GCC vectorizes the loops
/// that inline it without -ffast-math, and a lane's bits do not depend on
/// its position in a vector. Maximum relative error about 4e-16 against
/// libm where e^x is a normal number; results below DBL_MIN (x < ln DBL_MIN)
/// are flushed to 0. Meant for x <= 709 (no overflow handling); NaN
/// propagates.
[[nodiscard]] double vexp(double x);

/// Interface for a radial Green's-function kernel entry generator.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// out(i, j) = K(row point i, column point j) for the whole
  /// out.rows x out.cols block; `rows` and `cols` hold at least that many
  /// points. Each entry's bits depend only on its two points.
  virtual void fill(Coords rows, Coords cols, la::MatrixView out) const = 0;

  /// Matrix entry for the point pair (x, y), evaluated through libm: the
  /// reference `fill` is tested against.
  [[nodiscard]] virtual double operator()(const geom::Point& x,
                                          const geom::Point& y) const = 0;

  /// Human-readable kernel name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Laplace 2D: f(x,y) = -ln(eps + dist(x,y)), eps = 1e-9 (paper Table 3).
class Laplace2D final : public Kernel {
 public:
  explicit Laplace2D(double eps = 1e-9) : eps_(eps) {}
  void fill(Coords rows, Coords cols, la::MatrixView out) const override;
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "laplace2d"; }

 private:
  double eps_;
};

/// Yukawa (screened Coulomb): f(x,y) = e^{-alpha (theta + r)} / (theta + r),
/// alpha = 1, theta = 1e-9 (paper Table 3).
class Yukawa final : public Kernel {
 public:
  explicit Yukawa(double alpha = 1.0, double theta = 1e-9)
      : alpha_(alpha), theta_(theta) {}
  void fill(Coords rows, Coords cols, la::MatrixView out) const override;
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "yukawa"; }

 private:
  double alpha_;
  double theta_;
};

/// Matérn covariance at half-integer smoothness nu, in closed form with
/// z = r/mu (this library's scaling, without the sqrt(2 nu) factor):
///   nu = 1/2: sigma^2 e^{-z}                 (the exponential covariance)
///   nu = 3/2: sigma^2 (1 + z) e^{-z}
///   nu = 5/2: sigma^2 (1 + z + z^2/3) e^{-z}
/// These equal sigma^2 / (2^{nu-1} Gamma(nu)) z^nu K_nu(z). Paper constants:
/// sigma = 1, mu = 0.03, nu = 1/2. Any other nu throws hatrix::Error.
class Matern final : public Kernel {
 public:
  explicit Matern(double sigma = 1.0, double mu = 0.03, double nu = 0.5);
  void fill(Coords rows, Coords cols, la::MatrixView out) const override;
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "matern"; }

 private:
  double sigma2_;
  double inv_mu_;
  // sigma^2 (1 + z (c1_ + c2_ z)) e^{-z}; (c1, c2) = (0, 0), (1, 0), (1, 1/3).
  double c1_;
  double c2_;
};

/// Factory by name ("laplace2d", "yukawa", "matern") with the paper's
/// default constants; used by bench CLI flags.
std::unique_ptr<Kernel> make_kernel(const std::string& name);

}  // namespace hatrix::kernels
