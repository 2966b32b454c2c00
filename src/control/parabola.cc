#include "control/parabola.h"

#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace alc::control {

ParabolaApproximationController::ParabolaApproximationController(
    const PaConfig& config)
    : config_(config),
      rls_(3, config.forgetting, config.initial_covariance),
      bound_(config.initial_bound),
      center_(config.initial_bound),
      scale_(config.max_bound) {
  ALC_CHECK_GT(config.min_bound, 0.0);
  ALC_CHECK_GT(config.max_bound, config.min_bound);
  ALC_CHECK_GE(config.dither, 0.0);
  ALC_CHECK_GE(config.warmup_updates, 0);
}

void ParabolaApproximationController::Reset(double initial_bound) {
  rls_.Reset();
  bound_ = initial_bound;
  center_ = initial_bound;
  dither_sign_ = 1;
  consecutive_upward_ = 0;
  excitation_boost_ = 1.0;
  ticks_in_phase_ = 0;
  recent_loads_.clear();
  last_reason_ = "warmup";
}

void ParabolaApproximationController::DescribeDecision(
    DecisionState* state) const {
  state->reason = last_reason_;
  double a0, a1, a2;
  FittedCoefficients(&a0, &a1, &a2);
  state->Set("a0", a0);
  state->Set("a1", a1);
  state->Set("a2", a2);
  state->Set("excitation", excitation_boost_);
}

void ParabolaApproximationController::UpdateExcitationBoost(double load) {
  if (config_.max_excitation_boost <= 1.0 || config_.dither <= 0.0) return;
  recent_loads_.push_back(load);
  if (recent_loads_.size() > 8) {
    recent_loads_.erase(recent_loads_.begin());
  }
  if (recent_loads_.size() < 4) return;
  double lo = recent_loads_[0], hi = recent_loads_[0];
  for (double l : recent_loads_) {
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  // The commanded dither alternates by 2*dither; if the observed *per
  // interval* load swings by much less, the estimator is starving. This
  // happens when the measurement interval is shorter than the system's
  // settling time: the window average smears the commanded oscillation
  // away. The remedy is a slower and larger probe signal — the boost both
  // scales the amplitude and stretches the dither period (sign held for
  // ~boost intervals). Hysteresis (grow below dither, decay above 2*dither)
  // keeps the guard quiet in healthy operation.
  if (hi - lo < config_.dither) {
    excitation_boost_ =
        std::min(excitation_boost_ * 1.5, config_.max_excitation_boost);
  } else if (hi - lo > 2.0 * config_.dither) {
    excitation_boost_ = std::max(1.0, excitation_boost_ * 0.75);
  }
}

void ParabolaApproximationController::FittedCoefficients(double* a0,
                                                         double* a1,
                                                         double* a2) const {
  const auto& c = rls_.coefficients();
  // P(n) = c0 + c1 (n/s) + c2 (n/s)^2  =>  a1 = c1/s, a2 = c2/s^2.
  *a0 = c[0];
  *a1 = c[1] / scale_;
  *a2 = c[2] / (scale_ * scale_);
}

double ParabolaApproximationController::ApplyRecovery(double load) {
  ++consecutive_upward_;
  if (consecutive_upward_ >= config_.reset_after_failures) {
    // Fig. 8 situation: the performance surface changed shape and old
    // measurements mislead the fit. Wash them out.
    rls_.ResetCovariance();
    consecutive_upward_ = 0;
  }
  switch (config_.recovery) {
    case PaRecoveryPolicy::kHold:
      last_reason_ = "recovery-hold";
      return center_;
    case PaRecoveryPolicy::kGradient: {
      last_reason_ = "recovery-gradient";
      const auto& c = rls_.coefficients();
      const double x = load / scale_;
      const double slope = c[1] + 2.0 * c[2] * x;  // dP/dx, sign matches dP/dn
      return center_ + (slope > 0.0 ? config_.recovery_step
                                    : -config_.recovery_step);
    }
    case PaRecoveryPolicy::kContract:
      last_reason_ = "recovery-contract";
      return center_ - config_.recovery_step;
    case PaRecoveryPolicy::kReset:
      last_reason_ = "recovery-reset";
      rls_.Reset();
      consecutive_upward_ = 0;
      return center_;
  }
  last_reason_ = "recovery-hold";
  return center_;
}

double ParabolaApproximationController::Update(const Sample& sample) {
  const double performance = PerformanceValue(sample, config_.index);
  const double load = sample.mean_active;
  const double x = load / scale_;
  phi_[1] = x;
  phi_[2] = x * x;
  rls_.Update(phi_, performance);
  UpdateExcitationBoost(load);
  const double dither = config_.dither * excitation_boost_;

  // The dither sign is held for ~boost intervals so the probe period stays
  // longer than the settling time the boost is compensating for.
  if (++ticks_in_phase_ >= static_cast<int>(excitation_boost_ + 0.5)) {
    dither_sign_ = -dither_sign_;
    ticks_in_phase_ = 0;
  }

  if (rls_.updates() <= config_.warmup_updates) {
    // Not enough excitation for a trustworthy fit: probe around the initial
    // bound to generate the variation least squares needs.
    last_reason_ = "warmup";
    bound_ = util::Clamp(center_ + dither_sign_ * dither, config_.min_bound,
                         config_.max_bound);
    return bound_;
  }

  const auto& c = rls_.coefficients();
  const double a2 = c[2];
  if (a2 < 0.0) {
    last_reason_ = "vertex";
    consecutive_upward_ = 0;
    const double vertex_x = -c[1] / (2.0 * a2);
    center_ = util::Clamp(vertex_x * scale_, config_.min_bound,
                          config_.max_bound);
  } else {
    center_ = util::Clamp(ApplyRecovery(load), config_.min_bound,
                          config_.max_bound);
  }

  bound_ = util::Clamp(center_ + dither_sign_ * dither, config_.min_bound,
                       config_.max_bound);
  return bound_;
}

}  // namespace alc::control
