#include "kernels/kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/error.hpp"

// This TU is compiled with the kernel flags plus -fno-math-errno (so sqrt
// vectorizes) and -ffp-contract=off (so the compiler fuses no multiply-add
// in one copy of a loop and not in another): see CMakeLists.txt. The fused
// multiply-adds of `vexp` are written out instead.

namespace hatrix::kernels {

namespace {

using la::index_t;

// a * b + c, fused on targets with FMA.
[[gnu::always_inline]] inline double madd(double a, double b, double c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

[[gnu::always_inline]] inline double exp_body(double x) {
  constexpr double kLog2e = 1.4426950408889634;
  // 1.5 * 2^52: adding it rounds to an integer held in the low mantissa bits.
  constexpr double kShift = 0x1.8p52;
  // ln 2 split so that k * kLn2Hi is exact for |k| < 2^20 (fdlibm's split).
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // ln(DBL_MIN): the smallest x whose e^x is a normal number.
  constexpr double kMinArg = -708.3964185322641;

  // Clamping keeps k in [-1023, 1023], so the biased exponent k + 1023 lies
  // in [0, 2046]; below kMinArg the result is replaced by 0 anyway.
  const double xc = x < -709.0 ? -709.0 : (x > 709.0 ? 709.0 : x);
  const double shifted = madd(xc, kLog2e, kShift);
  const double k = shifted - kShift;
  const double r = madd(-k, kLn2Lo, madd(-k, kLn2Hi, xc));

  // e^r by its Taylor series to degree 13, by Horner's rule: the remainder
  // is below 5e-18 for |r| <= ln2/2. (Written out: a loop over a coefficient
  // table here keeps GCC 12 from vectorizing the block loops.)
  double p = 1.0 / 6227020800.0;  // 1/13!
  p = madd(p, r, 1.0 / 479001600.0);
  p = madd(p, r, 1.0 / 39916800.0);
  p = madd(p, r, 1.0 / 3628800.0);
  p = madd(p, r, 1.0 / 362880.0);
  p = madd(p, r, 1.0 / 40320.0);
  p = madd(p, r, 1.0 / 5040.0);
  p = madd(p, r, 1.0 / 720.0);
  p = madd(p, r, 1.0 / 120.0);
  p = madd(p, r, 1.0 / 24.0);
  p = madd(p, r, 1.0 / 6.0);
  p = madd(p, r, 0.5);
  p = madd(p, r, 1.0);
  p = madd(p, r, 1.0);

  // The low 12 bits of `shifted` hold k mod 2^12; adding the bias and
  // shifting them into the exponent field gives 2^k (unsigned arithmetic).
  const std::uint64_t biased = std::bit_cast<std::uint64_t>(shifted) + 1023u;
  const double scale = std::bit_cast<double>(biased << 52);
  const double v = p * scale;
  return x < kMinArg ? 0.0 : v;
}

/// out(i, j) = f(|row i - col j|). Column-major: the inner loop runs down
/// one column with the column point held fixed, and vectorizes.
template <class F>
[[gnu::always_inline]] inline void fill_radial(Coords rows, Coords cols,
                                               la::MatrixView out, F f) {
  for (index_t j = 0; j < out.cols; ++j) {
    const double cx = cols.x[j], cy = cols.y[j], cz = cols.z[j];
    double* col = out.data + j * out.ld;
    for (index_t i = 0; i < out.rows; ++i) {
      const double dx = rows.x[i] - cx;
      const double dy = rows.y[i] - cy;
      const double dz = rows.z[i] - cz;
      col[i] = f(std::sqrt(dx * dx + dy * dy + dz * dz));
    }
  }
}

}  // namespace

double vexp(double x) { return exp_body(x); }

void Laplace2D::fill(Coords rows, Coords cols, la::MatrixView out) const {
  const double eps = eps_;
  fill_radial(rows, cols, out, [eps](double r) { return -std::log(eps + r); });
}

double Laplace2D::operator()(const geom::Point& x, const geom::Point& y) const {
  return -std::log(eps_ + geom::dist(x, y));
}

void Yukawa::fill(Coords rows, Coords cols, la::MatrixView out) const {
  const double alpha = alpha_, theta = theta_;
  fill_radial(rows, cols, out, [alpha, theta](double r) {
    const double s = theta + r;
    return exp_body(-alpha * s) / s;
  });
}

double Yukawa::operator()(const geom::Point& x, const geom::Point& y) const {
  const double s = theta_ + geom::dist(x, y);
  return std::exp(-alpha_ * s) / s;
}

Matern::Matern(double sigma, double mu, double nu)
    : sigma2_(sigma * sigma),
      inv_mu_(1.0 / mu),
      c1_(nu == 0.5 ? 0.0 : 1.0),
      c2_(nu == 2.5 ? 1.0 / 3.0 : 0.0) {
  if (nu != 0.5 && nu != 1.5 && nu != 2.5) {
    std::ostringstream msg;
    msg << "Matern: nu = " << nu << " has no closed form here (use 0.5, 1.5 or 2.5)";
    throw Error(msg.str());
  }
}

void Matern::fill(Coords rows, Coords cols, la::MatrixView out) const {
  const double sigma2 = sigma2_, inv_mu = inv_mu_, c1 = c1_, c2 = c2_;
  fill_radial(rows, cols, out, [=](double r) {
    const double z = r * inv_mu;
    return sigma2 * (1.0 + z * (c1 + c2 * z)) * exp_body(-z);
  });
}

double Matern::operator()(const geom::Point& x, const geom::Point& y) const {
  const double z = geom::dist(x, y) * inv_mu_;
  return sigma2_ * (1.0 + z * (c1_ + c2_ * z)) * std::exp(-z);
}

std::unique_ptr<Kernel> make_kernel(const std::string& name) {
  if (name == "laplace2d") return std::make_unique<Laplace2D>();
  if (name == "yukawa") return std::make_unique<Yukawa>();
  if (name == "matern") return std::make_unique<Matern>();
  throw Error("unknown kernel: " + name);
}

}  // namespace hatrix::kernels
