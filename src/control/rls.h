#ifndef ALC_CONTROL_RLS_H_
#define ALC_CONTROL_RLS_H_

#include <vector>

namespace alc::control {

/// Recursive least-squares estimator with exponentially fading memory
/// (Young, "Recursive Estimation and Time-Series Analysis", 1984), the
/// estimator behind the Parabola Approximation (paper section 4.2).
///
/// Model: y_t = phi_t^T a + e_t. Each Update performs
///   k   = P phi / (alpha + phi^T P phi)
///   a  += k (y - phi^T a)
///   P   = (P - k phi^T P) / alpha
/// where alpha in (0, 1] is the forgetting factor: alpha = 1 reproduces
/// ordinary (growing-memory) least squares; smaller alpha weights the most
/// recent observations more (weight of an s-steps-old sample is alpha^s).
class RecursiveLeastSquares {
 public:
  /// dim: number of coefficients; forgetting: alpha; initial_covariance:
  /// P(0) = initial_covariance * I (large values mean weak priors).
  RecursiveLeastSquares(int dim, double forgetting, double initial_covariance);

  /// Incorporates one observation. phi must have size dim. When P has
  /// degenerated so that alpha + phi^T P phi is no longer positive and
  /// finite (input exciting too few directions for too long), P restarts
  /// from P(0) first, as ResetCovariance() does.
  void Update(const std::vector<double>& phi, double y);

  /// Current coefficient estimates (size dim).
  const std::vector<double>& coefficients() const { return coeffs_; }

  /// Predicted y for a regressor.
  double Predict(const std::vector<double>& phi) const;

  /// Number of updates since construction / last Reset.
  int updates() const { return updates_; }

  double forgetting() const { return forgetting_; }
  void set_forgetting(double alpha);

  /// Forgets everything: coefficients to zero, covariance to P(0).
  void Reset();

  /// Keeps coefficients but resets the covariance to P(0), making the
  /// estimator maximally receptive to new data (used for recovery after the
  /// performance function changed shape abruptly, paper fig. 8).
  void ResetCovariance();

  /// Covariance matrix entry (row, col) — test/diagnostic access.
  double covariance(int row, int col) const;

 private:
  int dim_;
  double forgetting_;
  double initial_covariance_;
  std::vector<double> coeffs_;  // a
  std::vector<double> cov_;     // P, row-major dim x dim
  int updates_ = 0;
  // scratch
  std::vector<double> p_phi_;
  std::vector<double> gain_;
};

}  // namespace alc::control

#endif  // ALC_CONTROL_RLS_H_
