#ifndef ALC_CONTROL_PARABOLA_H_
#define ALC_CONTROL_PARABOLA_H_

#include <string_view>
#include <vector>

#include "control/controller.h"
#include "control/rls.h"

namespace alc::control {

/// Recovery action when the fitted parabola opens upward (a2 >= 0), which
/// the paper flags as "obviously unreliable and useless" (section 5.2,
/// figures 7/8). The source text truncates the option list; these policies
/// reconstruct it (see DESIGN.md).
enum class PaRecoveryPolicy {
  kHold,      // keep the previous bound until the fit recovers
  kGradient,  // follow the sign of the fitted slope at the current load
  kContract,  // assume deep overload (fig. 8) and step the bound down
  kReset,     // re-initialize the estimator and hold
};

/// Parameters of the Parabola Approximation (paper sections 4.2, 5.2).
struct PaConfig {
  double forgetting = 0.95;   // aging coefficient alpha
  double initial_covariance = 1e4;
  double initial_bound = 50.0;
  double min_bound = 5.0;
  double max_bound = 1000.0;
  /// Excitation dither: the commanded bound alternates +/- this amount
  /// around the estimated optimum. Least squares needs variation in the
  /// measurements (paper section 5.2); the paper notes the oscillations in
  /// figure 14 are "enforced by the algorithm".
  double dither = 12.0;
  /// Updates before the vertex rule is trusted (regressor not yet exciting).
  int warmup_updates = 4;
  /// Step used by kGradient / kContract recovery.
  double recovery_step = 20.0;
  /// After this many consecutive upward fits, the covariance is reset so
  /// stale history (fig. 8: shape changed abruptly) washes out.
  int reset_after_failures = 6;
  /// When the *measured* load stops responding to the dither (e.g. the
  /// measurement interval is shorter than the transaction response time, so
  /// commanded oscillations never materialize), the regressor degenerates
  /// and the fit can park the bound in a corner. The controller then grows
  /// its excitation up to this factor until load variation returns. 1
  /// disables the guard.
  double max_excitation_boost = 8.0;
  PaRecoveryPolicy recovery = PaRecoveryPolicy::kGradient;
  PerformanceIndex index = PerformanceIndex::kThroughput;
};

/// Parabola Approximation (PA): fits P(n) = a0 + a1 n + a2 n^2 by recursive
/// least squares with exponentially fading memory and drives the admission
/// bound to the parabola's maximum -a1 / (2 a2) while a2 < 0. The load
/// regressor is normalized by max_bound for numerical conditioning.
class ParabolaApproximationController : public LoadController {
 public:
  explicit ParabolaApproximationController(const PaConfig& config);

  double Update(const Sample& sample) override;
  void Reset(double initial_bound) override;
  double bound() const override { return bound_; }
  std::string_view name() const override { return "parabola-approximation"; }
  void DescribeDecision(DecisionState* state) const override;

  const PaConfig& config() const { return config_; }

  /// Fitted coefficients in *load units* (a0, a1, a2), denormalized.
  void FittedCoefficients(double* a0, double* a1, double* a2) const;

  /// True if the last fit opened upward (recovery mode).
  bool in_recovery() const { return consecutive_upward_ > 0; }
  int consecutive_upward_fits() const { return consecutive_upward_; }

  /// Current excitation multiplier (> 1 while the dither guard is active).
  double excitation_boost() const { return excitation_boost_; }

 private:
  double ApplyRecovery(double load);
  void UpdateExcitationBoost(double load);

  PaConfig config_;
  RecursiveLeastSquares rls_;
  /// The estimator's feature vector {1, x, x^2}, reused across updates.
  std::vector<double> phi_ = {1.0, 0.0, 0.0};
  double bound_;
  double center_;            // estimated optimum before dither
  int dither_sign_ = 1;
  int consecutive_upward_ = 0;
  double scale_;             // regressor normalization (max_bound)
  double excitation_boost_ = 1.0;
  int ticks_in_phase_ = 0;
  std::vector<double> recent_loads_;
  const char* last_reason_ = "warmup";
};

}  // namespace alc::control

#endif  // ALC_CONTROL_PARABOLA_H_
