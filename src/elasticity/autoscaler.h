#ifndef ALC_ELASTICITY_AUTOSCALER_H_
#define ALC_ELASTICITY_AUTOSCALER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "control/controller.h"
#include "util/params.h"
#include "util/registry.h"

namespace alc::elasticity {

/// One fleet-level measurement interval, as the autoscaler sees it. All
/// signals are *measured* — gate depths the front-end reported itself and
/// response percentiles from the telemetry histograms — never ground truth.
struct FleetSample {
  double time = 0.0;
  int live = 0;     // routable nodes right now
  int standby = 0;  // provisionable pool remaining
  /// Mean over live nodes of gate_queue / max(n*, 1): the fleet-wide
  /// queue-pressure signal (1.0 = queues as deep as the admission limits).
  double queue_factor = 0.0;
  /// Fleet response-time p95 over the last interval (merged per-node
  /// histograms, window delta). 0 when no transaction finished.
  double p95 = 0.0;
};

/// What an autoscaler tick decided: provision (+1), drain (-1), or hold.
/// `reason` is a string literal owned by the policy.
struct ScaleDecision {
  int delta = 0;
  const char* reason = "hold";
};

/// Fleet-capacity counterpart of control::LoadController: consumes one
/// FleetSample per interval, returns a scale step. Pure policy — never
/// touches the cluster; the ElasticityController actuates the decision
/// against the standby pool (and clamps it to pool/min_live bounds).
class AutoscalerPolicy {
 public:
  virtual ~AutoscalerPolicy() = default;

  virtual ScaleDecision Update(const FleetSample& sample) = 0;
  virtual std::string_view name() const = 0;

  /// Explains the most recent Update (reason + named internal state) for
  /// the decision audit. Observation-only.
  virtual void DescribeDecision(control::DecisionState* state) const {
    (void)state;
  }
};

/// Inert placeholder so "none" is a registered name like any other: spec
/// validation stays uniform and the ElasticityController simply skips the
/// sampling loop for it.
class NoneAutoscaler : public AutoscalerPolicy {
 public:
  ScaleDecision Update(const FleetSample& sample) override {
    (void)sample;
    return ScaleDecision{};
  }
  std::string_view name() const override { return "none"; }
};

/// Hysteresis-threshold scaler: provision when the queue factor has sat
/// above `up_queue_factor` (or p95 above `up_p95`, when set) for
/// `hold_ticks` consecutive samples; drain when it has sat below
/// `down_queue_factor` as long. The dead band between the thresholds plus
/// the streak requirement plus a post-action cooldown is the classic
/// flap-damping triple.
class HysteresisAutoscaler : public AutoscalerPolicy {
 public:
  struct Config {
    double up_queue_factor = 1.0;
    double down_queue_factor = 0.1;
    double up_p95 = 0.0;  // 0 disables the latency trigger
    int hold_ticks = 2;   // consecutive samples beyond a threshold to act
    double cooldown = 5.0;  // seconds after an action before the next
  };

  explicit HysteresisAutoscaler(const Config& config);

  ScaleDecision Update(const FleetSample& sample) override;
  std::string_view name() const override { return "hysteresis"; }
  void DescribeDecision(control::DecisionState* state) const override;

 private:
  Config config_;
  int up_streak_ = 0;
  int down_streak_ = 0;
  double last_action_time_ = -1e300;
  ScaleDecision last_ = ScaleDecision{};
  double last_signal_ = 0.0;
};

/// Proportional-integral scaler on the queue-factor error after the
/// self-tuned-threshold literature: e = queue_factor - target, drive the
/// (continuous) desired fleet delta kp*e + ki*integral(e), act on ±1 when
/// the drive crosses ±1. Anti-windup clamps the integral so a long
/// saturated surge does not store unbounded scale-down debt.
class PiAutoscaler : public AutoscalerPolicy {
 public:
  struct Config {
    double target_queue_factor = 0.5;
    double kp = 2.0;
    double ki = 0.4;
    double integral_clamp = 5.0;  // |integral| bound (anti-windup)
    double cooldown = 5.0;        // seconds between actions
  };

  explicit PiAutoscaler(const Config& config);

  ScaleDecision Update(const FleetSample& sample) override;
  std::string_view name() const override { return "pi"; }
  void DescribeDecision(control::DecisionState* state) const override;

 private:
  Config config_;
  double integral_ = 0.0;
  double last_time_ = -1.0;
  double last_action_time_ = -1e300;
  ScaleDecision last_ = ScaleDecision{};
  double last_error_ = 0.0;
  double last_drive_ = 0.0;
};

/// What an autoscaler factory may consume, mirroring RoutingPolicyContext.
struct AutoscalerContext {
  const util::ParamMap* params = nullptr;  // never null inside a factory
  uint64_t seed = 0;
};

/// Autoscaler policies by name: the built-ins ("none", "hysteresis", "pi")
/// come with Global(), user code adds policies and selects them through the
/// [elasticity] spec section.
using AutoscalerRegistry = util::Registry<AutoscalerPolicy, AutoscalerContext>;
AutoscalerRegistry BuiltinRegistry(AutoscalerRegistry*);

/// Struct <-> ParamMap serialization for the built-in scaler configs, each
/// derived from the config's param table; the writers emit exactly the keys
/// the factories read.
void AppendHysteresisParams(const HysteresisAutoscaler::Config& config,
                            util::ParamMap* params);
HysteresisAutoscaler::Config HysteresisFromParams(const util::ParamMap& params);

void AppendPiParams(const PiAutoscaler::Config& config, util::ParamMap* params);
PiAutoscaler::Config PiFromParams(const util::ParamMap& params);

/// Checks `value` against the row of `key` in the built-in param tables
/// (util::CheckParam); keys no built-in reads pass.
bool ValidateAutoscalerParam(const std::string& key, const std::string& value,
                             std::string* error);

}  // namespace alc::elasticity

#endif  // ALC_ELASTICITY_AUTOSCALER_H_
