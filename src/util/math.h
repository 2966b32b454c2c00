#ifndef ALC_UTIL_MATH_H_
#define ALC_UTIL_MATH_H_

#include <cstddef>
#include <vector>

namespace alc::util {

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9). p must be in (0, 1).
double InverseNormalCdf(double p);

/// Two-sided standard normal quantile for a given confidence level,
/// e.g. confidence = 0.95 -> 1.959964.
double NormalQuantileTwoSided(double confidence);

/// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

/// num / den, or 0 when den is not positive (an empty window's mean or
/// share).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Linear interpolation between (x0, y0) and (x1, y1) at x.
double Lerp(double x0, double y0, double x1, double y1, double x);

/// Ordinary least squares fit of y = c0 + c1 x + ... + c_{order} x^order.
/// Returns the coefficient vector (size order+1) solved via normal equations
/// with Gaussian elimination and partial pivoting. Requires
/// xs.size() == ys.size() >= order + 1. Returns empty vector if the system is
/// singular.
std::vector<double> PolyFit(const std::vector<double>& xs,
                            const std::vector<double>& ys, int order);

/// Evaluates a polynomial with coefficients in ascending-power order.
double PolyEval(const std::vector<double>& coeffs, double x);

/// Solves the linear system a * x = b in place (n x n, row major) using
/// Gaussian elimination with partial pivoting. Returns false if singular.
bool SolveLinearSystem(std::vector<double>& a, std::vector<double>& b, int n);

}  // namespace alc::util

#endif  // ALC_UTIL_MATH_H_
