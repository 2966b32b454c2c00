#include "elasticity/autoscaler.h"

#include "util/check.h"

namespace alc::elasticity {

HysteresisAutoscaler::HysteresisAutoscaler(const Config& config)
    : config_(config) {
  ALC_CHECK_GT(config_.up_queue_factor, config_.down_queue_factor);
  ALC_CHECK_GE(config_.hold_ticks, 1);
  ALC_CHECK_GE(config_.cooldown, 0.0);
}

ScaleDecision HysteresisAutoscaler::Update(const FleetSample& sample) {
  last_signal_ = sample.queue_factor;
  const bool overloaded =
      sample.queue_factor > config_.up_queue_factor ||
      (config_.up_p95 > 0.0 && sample.p95 > config_.up_p95);
  const bool underloaded = sample.queue_factor < config_.down_queue_factor;
  up_streak_ = overloaded ? up_streak_ + 1 : 0;
  down_streak_ = underloaded ? down_streak_ + 1 : 0;

  last_ = ScaleDecision{0, "hold"};
  if (sample.time - last_action_time_ < config_.cooldown) {
    last_.reason = "cooldown";
  } else if (up_streak_ >= config_.hold_ticks) {
    last_ = ScaleDecision{+1, "overload"};
  } else if (down_streak_ >= config_.hold_ticks) {
    last_ = ScaleDecision{-1, "underload"};
  }
  if (last_.delta != 0) {
    last_action_time_ = sample.time;
    up_streak_ = 0;
    down_streak_ = 0;
  }
  return last_;
}

void HysteresisAutoscaler::DescribeDecision(
    control::DecisionState* state) const {
  state->reason = last_.reason;
  state->Set("queue_factor", last_signal_);
  state->Set("up_streak", up_streak_);
  state->Set("down_streak", down_streak_);
}

PiAutoscaler::PiAutoscaler(const Config& config) : config_(config) {
  ALC_CHECK_GT(config_.integral_clamp, 0.0);
  ALC_CHECK_GE(config_.cooldown, 0.0);
}

ScaleDecision PiAutoscaler::Update(const FleetSample& sample) {
  const double dt = last_time_ < 0.0 ? 0.0 : sample.time - last_time_;
  last_time_ = sample.time;
  last_error_ = sample.queue_factor - config_.target_queue_factor;
  integral_ += last_error_ * dt;
  if (integral_ > config_.integral_clamp) integral_ = config_.integral_clamp;
  if (integral_ < -config_.integral_clamp) integral_ = -config_.integral_clamp;
  last_drive_ = config_.kp * last_error_ + config_.ki * integral_;

  last_ = ScaleDecision{0, "hold"};
  if (sample.time - last_action_time_ < config_.cooldown) {
    last_.reason = "cooldown";
  } else if (last_drive_ >= 1.0) {
    last_ = ScaleDecision{+1, "drive-up"};
  } else if (last_drive_ <= -1.0) {
    last_ = ScaleDecision{-1, "drive-down"};
  }
  if (last_.delta != 0) {
    last_action_time_ = sample.time;
    // Bleed the integral by the actuated unit so a satisfied demand does
    // not immediately re-trigger.
    integral_ -= last_.delta / (config_.ki > 0.0 ? config_.ki : 1.0);
    if (integral_ > config_.integral_clamp) integral_ = config_.integral_clamp;
    if (integral_ < -config_.integral_clamp) {
      integral_ = -config_.integral_clamp;
    }
  }
  return last_;
}

void PiAutoscaler::DescribeDecision(control::DecisionState* state) const {
  state->reason = last_.reason;
  state->Set("error", last_error_);
  state->Set("integral", integral_);
  state->Set("drive", last_drive_);
}

namespace {

// A row's bound is the check of the scaler constructor reading the key;
// the hysteresis up > down ordering is core::ValidateSpec's.
using util::Param;
using HysteresisConfig = HysteresisAutoscaler::Config;
constexpr util::ParamField<HysteresisConfig> kHysteresisParams[] = {
    Param<&HysteresisConfig::up_queue_factor>("hysteresis.up_queue_factor",
                                              util::kDoubleParam),
    Param<&HysteresisConfig::down_queue_factor>("hysteresis.down_queue_factor",
                                                util::kDoubleParam),
    Param<&HysteresisConfig::up_p95>("hysteresis.up_p95", util::kDoubleParam),
    Param<&HysteresisConfig::hold_ticks>("hysteresis.hold_ticks",
                                         util::kPositiveIntParam),
    Param<&HysteresisConfig::cooldown>("hysteresis.cooldown",
                                       util::kNonNegativeDoubleParam),
};
using PiConfig = PiAutoscaler::Config;
constexpr util::ParamField<PiConfig> kPiParams[] = {
    Param<&PiConfig::target_queue_factor>("pi.target_queue_factor",
                                          util::kDoubleParam),
    Param<&PiConfig::kp>("pi.kp", util::kDoubleParam),
    Param<&PiConfig::ki>("pi.ki", util::kDoubleParam),
    Param<&PiConfig::integral_clamp>("pi.integral_clamp",
                                     util::kPositiveDoubleParam),
    Param<&PiConfig::cooldown>("pi.cooldown", util::kNonNegativeDoubleParam),
};

}  // namespace

void AppendHysteresisParams(const HysteresisAutoscaler::Config& config,
                            util::ParamMap* params) {
  util::WriteParams(kHysteresisParams, config, params);
}

HysteresisAutoscaler::Config HysteresisFromParams(
    const util::ParamMap& params) {
  return util::ReadParams(kHysteresisParams, params);
}

void AppendPiParams(const PiAutoscaler::Config& config,
                    util::ParamMap* params) {
  util::WriteParams(kPiParams, config, params);
}

PiAutoscaler::Config PiFromParams(const util::ParamMap& params) {
  return util::ReadParams(kPiParams, params);
}

bool ValidateAutoscalerParam(const std::string& key, const std::string& value,
                             std::string* error) {
  return util::CheckParam("autoscaler param", key, value, error,
                          kHysteresisParams, kPiParams);
}

AutoscalerRegistry BuiltinRegistry(AutoscalerRegistry*) {
  AutoscalerRegistry registry("autoscaler");
  registry.Register<NoneAutoscaler>("none");
  registry.Register("hysteresis", [](const AutoscalerContext& context) {
    return std::make_unique<HysteresisAutoscaler>(
        HysteresisFromParams(*context.params));
  });
  registry.Register("pi", [](const AutoscalerContext& context) {
    return std::make_unique<PiAutoscaler>(PiFromParams(*context.params));
  });
  return registry;
}

}  // namespace alc::elasticity
