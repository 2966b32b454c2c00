#include "elasticity/autoscaler.h"

#include <utility>

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

void AppendHysteresisParams(const HysteresisAutoscaler::Config& config,
                            util::ParamMap* params) {
  params->SetDouble("hysteresis.up_queue_factor", config.up_queue_factor);
  params->SetDouble("hysteresis.down_queue_factor", config.down_queue_factor);
  params->SetDouble("hysteresis.up_p95", config.up_p95);
  params->SetInt("hysteresis.hold_ticks", config.hold_ticks);
  params->SetDouble("hysteresis.cooldown", config.cooldown);
}

HysteresisAutoscaler::Config HysteresisFromParams(
    const util::ParamMap& params) {
  HysteresisAutoscaler::Config config;
  config.up_queue_factor =
      params.GetDouble("hysteresis.up_queue_factor", config.up_queue_factor);
  config.down_queue_factor = params.GetDouble("hysteresis.down_queue_factor",
                                              config.down_queue_factor);
  config.up_p95 = params.GetDouble("hysteresis.up_p95", config.up_p95);
  config.hold_ticks = params.GetInt("hysteresis.hold_ticks", config.hold_ticks);
  config.cooldown = params.GetDouble("hysteresis.cooldown", config.cooldown);
  return config;
}

void AppendPiParams(const PiAutoscaler::Config& config,
                    util::ParamMap* params) {
  params->SetDouble("pi.target_queue_factor", config.target_queue_factor);
  params->SetDouble("pi.kp", config.kp);
  params->SetDouble("pi.ki", config.ki);
  params->SetDouble("pi.integral_clamp", config.integral_clamp);
  params->SetDouble("pi.cooldown", config.cooldown);
}

PiAutoscaler::Config PiFromParams(const util::ParamMap& params) {
  PiAutoscaler::Config config;
  config.target_queue_factor =
      params.GetDouble("pi.target_queue_factor", config.target_queue_factor);
  config.kp = params.GetDouble("pi.kp", config.kp);
  config.ki = params.GetDouble("pi.ki", config.ki);
  config.integral_clamp =
      params.GetDouble("pi.integral_clamp", config.integral_clamp);
  config.cooldown = params.GetDouble("pi.cooldown", config.cooldown);
  return config;
}

bool ValidateAutoscalerParam(const std::string& key, const std::string& value,
                             std::string* error) {
  static constexpr util::TypedParam kBuiltinParams[] = {
      {"hysteresis.up_queue_factor", util::kDoubleParam},
      {"hysteresis.down_queue_factor", util::kDoubleParam},
      {"hysteresis.up_p95", util::kDoubleParam},
      {"hysteresis.hold_ticks", util::kIntParam},
      {"hysteresis.cooldown", util::kDoubleParam},
      {"pi.target_queue_factor", util::kDoubleParam},
      {"pi.kp", util::kDoubleParam},
      {"pi.ki", util::kDoubleParam},
      {"pi.integral_clamp", util::kDoubleParam},
      {"pi.cooldown", util::kDoubleParam},
  };
  return util::CheckTypedParam(kBuiltinParams, "autoscaler param", key, value,
                               error);
}

AutoscalerRegistry::AutoscalerRegistry() {
  Register("none", [](const AutoscalerContext&) {
    return std::make_unique<NoneAutoscaler>();
  });
  Register("hysteresis", [](const AutoscalerContext& context) {
    return std::make_unique<HysteresisAutoscaler>(
        HysteresisFromParams(*context.params));
  });
  Register("pi", [](const AutoscalerContext& context) {
    return std::make_unique<PiAutoscaler>(PiFromParams(*context.params));
  });
}

AutoscalerRegistry& AutoscalerRegistry::Global() {
  static AutoscalerRegistry* registry = new AutoscalerRegistry();
  return *registry;
}

bool AutoscalerRegistry::Register(const std::string& name,
                                  AutoscalerFactory factory) {
  ALC_CHECK(factory != nullptr);
  return factories_.emplace(name, std::move(factory)).second;
}

bool AutoscalerRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> AutoscalerRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

std::unique_ptr<AutoscalerPolicy> AutoscalerRegistry::Make(
    const std::string& name, const AutoscalerContext& context,
    std::string* error) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    if (error != nullptr) {
      *error = "unknown autoscaler '" + name + "'; registered:";
      for (const auto& [known, factory] : factories_) *error += " " + known;
    }
    return nullptr;
  }
  ALC_CHECK(context.params != nullptr);
  return it->second(context);
}

}  // namespace alc::elasticity
