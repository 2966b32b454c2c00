#include "control/rls.h"

#include <cmath>

#include "util/check.h"

namespace alc::control {

RecursiveLeastSquares::RecursiveLeastSquares(int dim, double forgetting,
                                             double initial_covariance)
    : dim_(dim),
      forgetting_(forgetting),
      initial_covariance_(initial_covariance),
      coeffs_(dim, 0.0),
      cov_(static_cast<size_t>(dim) * dim, 0.0),
      p_phi_(dim, 0.0),
      gain_(dim, 0.0) {
  ALC_CHECK_GT(dim, 0);
  ALC_CHECK_GT(forgetting, 0.0);
  ALC_CHECK_LE(forgetting, 1.0);
  ALC_CHECK_GT(initial_covariance, 0.0);
  Reset();
}

void RecursiveLeastSquares::set_forgetting(double alpha) {
  ALC_CHECK_GT(alpha, 0.0);
  ALC_CHECK_LE(alpha, 1.0);
  forgetting_ = alpha;
}

void RecursiveLeastSquares::Reset() {
  for (auto& c : coeffs_) c = 0.0;
  for (auto& p : cov_) p = 0.0;
  for (int i = 0; i < dim_; ++i) cov_[i * dim_ + i] = initial_covariance_;
  updates_ = 0;
}

void RecursiveLeastSquares::ResetCovariance() {
  for (auto& p : cov_) p = 0.0;
  for (int i = 0; i < dim_; ++i) cov_[i * dim_ + i] = initial_covariance_;
}

double RecursiveLeastSquares::Predict(const std::vector<double>& phi) const {
  ALC_CHECK_EQ(static_cast<int>(phi.size()), dim_);
  double y = 0.0;
  for (int i = 0; i < dim_; ++i) y += coeffs_[i] * phi[i];
  return y;
}

void RecursiveLeastSquares::Update(const std::vector<double>& phi, double y) {
  ALC_CHECK_EQ(static_cast<int>(phi.size()), dim_);

  // p_phi = P * phi
  for (int i = 0; i < dim_; ++i) {
    double acc = 0.0;
    for (int j = 0; j < dim_; ++j) acc += cov_[i * dim_ + j] * phi[j];
    p_phi_[i] = acc;
  }
  // denom = alpha + phi^T P phi
  double denom = forgetting_;
  for (int i = 0; i < dim_; ++i) denom += phi[i] * p_phi_[i];
  // On input that explores too few directions (a noise-free plant probed
  // at two loads), P winds up along the unexcited ones until rounding
  // leaves it indefinite. Restart it from the prior P(0) = c I, where
  // p_phi = c phi; the coefficients keep their fit.
  if (!(denom > 0.0) || !std::isfinite(denom)) {
    ResetCovariance();
    denom = forgetting_;
    for (int i = 0; i < dim_; ++i) {
      p_phi_[i] = initial_covariance_ * phi[i];
      denom += phi[i] * p_phi_[i];
    }
  }
  ALC_CHECK_GT(denom, 0.0);

  for (int i = 0; i < dim_; ++i) gain_[i] = p_phi_[i] / denom;

  const double error = y - Predict(phi);
  for (int i = 0; i < dim_; ++i) coeffs_[i] += gain_[i] * error;

  // P = (P - gain * phi^T P) / alpha. phi^T P equals p_phi^T because P is
  // symmetric; symmetry is preserved by the update (we re-symmetrize to
  // suppress numerical drift).
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      cov_[i * dim_ + j] =
          (cov_[i * dim_ + j] - gain_[i] * p_phi_[j]) / forgetting_;
    }
  }
  for (int i = 0; i < dim_; ++i) {
    for (int j = i + 1; j < dim_; ++j) {
      const double mean = 0.5 * (cov_[i * dim_ + j] + cov_[j * dim_ + i]);
      cov_[i * dim_ + j] = mean;
      cov_[j * dim_ + i] = mean;
    }
  }
  ++updates_;
}

double RecursiveLeastSquares::covariance(int row, int col) const {
  ALC_CHECK_GE(row, 0);
  ALC_CHECK_LT(row, dim_);
  ALC_CHECK_GE(col, 0);
  ALC_CHECK_LT(col, dim_);
  return cov_[row * dim_ + col];
}

}  // namespace alc::control
