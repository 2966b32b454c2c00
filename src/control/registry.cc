#include "control/registry.h"

#include <utility>

#include "control/fixed.h"

namespace alc::control {

namespace {

constexpr util::Name<PerformanceIndex> kIndexNames[] = {
    {"throughput", PerformanceIndex::kThroughput},
    {"inverse-response-time", PerformanceIndex::kInverseResponseTime},
    {"effective-cpu-utilization", PerformanceIndex::kEffectiveCpuUtilization}};
constexpr util::Name<PaRecoveryPolicy> kRecoveryNames[] = {
    {"hold", PaRecoveryPolicy::kHold},
    {"gradient", PaRecoveryPolicy::kGradient},
    {"contract", PaRecoveryPolicy::kContract},
    {"reset", PaRecoveryPolicy::kReset}};
using IndexText = util::Named<kIndexNames>;
using RecoveryText = util::Named<kRecoveryNames>;
constexpr util::ParamType kIndexParam{
    IndexText::Accepts,
    "throughput/inverse-response-time/effective-cpu-utilization"};
constexpr util::ParamType kRecoveryParam{RecoveryText::Accepts,
                                         "hold/gradient/contract/reset"};

/// The Tay rule's one param.
struct TayConfig {
  double threshold = 1.5;
};

// Each built-in controller's param table. A row's bound is the check of
// the controller constructor reading the key; the min_bound < max_bound
// orderings are core::ValidateSpec's.
using util::Param;
constexpr util::ParamField<FixedConfig> kFixedParams[] = {
    Param<&FixedConfig::limit>("fixed.limit", util::kDoubleParam),
};
constexpr util::ParamField<TayConfig> kTayParams[] = {
    Param<&TayConfig::threshold>("tay.threshold", util::kPositiveDoubleParam),
};
using IyerConfig = IyerRuleController::Config;
constexpr util::ParamField<IyerConfig> kIyerParams[] = {
    Param<&IyerConfig::target_conflicts>("iyer.target_conflicts",
                                         util::kDoubleParam),
    Param<&IyerConfig::gain>("iyer.gain", util::kPositiveDoubleParam),
    Param<&IyerConfig::initial_bound>("iyer.initial_bound", util::kDoubleParam),
    Param<&IyerConfig::min_bound>("iyer.min_bound", util::kPositiveDoubleParam),
    Param<&IyerConfig::max_bound>("iyer.max_bound", util::kDoubleParam),
};
constexpr util::ParamField<IsConfig> kIsParams[] = {
    Param<&IsConfig::beta>("is.beta", util::kPositiveDoubleParam),
    Param<&IsConfig::gamma>("is.gamma", util::kPositiveDoubleParam),
    Param<&IsConfig::delta>("is.delta", util::kNonNegativeDoubleParam),
    Param<&IsConfig::initial_bound>("is.initial_bound", util::kDoubleParam),
    Param<&IsConfig::min_bound>("is.min_bound", util::kPositiveDoubleParam),
    Param<&IsConfig::max_bound>("is.max_bound", util::kDoubleParam),
    Param<&IsConfig::index, IndexText>("is.index", kIndexParam),
};
constexpr util::ParamField<PaConfig> kPaParams[] = {
    // The RLS estimator's own checks.
    Param<&PaConfig::forgetting>("pa.forgetting", util::kPositiveFractionParam),
    Param<&PaConfig::initial_covariance>("pa.initial_covariance",
                                         util::kPositiveDoubleParam),
    Param<&PaConfig::initial_bound>("pa.initial_bound", util::kDoubleParam),
    Param<&PaConfig::min_bound>("pa.min_bound", util::kPositiveDoubleParam),
    Param<&PaConfig::max_bound>("pa.max_bound", util::kPositiveDoubleParam),
    Param<&PaConfig::dither>("pa.dither", util::kNonNegativeDoubleParam),
    Param<&PaConfig::warmup_updates>("pa.warmup_updates",
                                     util::kNonNegativeIntParam),
    Param<&PaConfig::recovery_step>("pa.recovery_step", util::kDoubleParam),
    Param<&PaConfig::reset_after_failures>("pa.reset_after_failures",
                                           util::kIntParam),
    Param<&PaConfig::max_excitation_boost>("pa.max_excitation_boost",
                                           util::kDoubleParam),
    Param<&PaConfig::recovery, RecoveryText>("pa.recovery", kRecoveryParam),
    Param<&PaConfig::index, IndexText>("pa.index", kIndexParam),
};
constexpr util::ParamField<GsConfig> kGsParams[] = {
    Param<&GsConfig::min_bound>("gs.min_bound", util::kDoubleParam),
    Param<&GsConfig::max_bound>("gs.max_bound", util::kDoubleParam),
    Param<&GsConfig::samples_per_probe>("gs.samples_per_probe",
                                        util::kPositiveIntParam),
    Param<&GsConfig::min_bracket>("gs.min_bracket",
                                  util::kPositiveDoubleParam),
    Param<&GsConfig::restart_width_factor>("gs.restart_width_factor",
                                           util::kDoubleParam),
    Param<&GsConfig::index, IndexText>("gs.index", kIndexParam),
};

}  // namespace

bool ValidateControllerParam(const std::string& key, const std::string& value,
                             std::string* error) {
  return util::CheckParam("controller param", key, value, error, kFixedParams,
                          kTayParams, kIyerParams, kIsParams, kPaParams,
                          kGsParams);
}

const char* PerformanceIndexName(PerformanceIndex index) {
  return IndexText::Write(index);
}

void AppendFixedParams(const FixedConfig& config, util::ParamMap* params) {
  util::WriteParams(kFixedParams, config, params);
}

void AppendIsParams(const IsConfig& config, util::ParamMap* params) {
  util::WriteParams(kIsParams, config, params);
}

IsConfig IsFromParams(const util::ParamMap& params) {
  return util::ReadParams(kIsParams, params);
}

void AppendPaParams(const PaConfig& config, util::ParamMap* params) {
  util::WriteParams(kPaParams, config, params);
}

PaConfig PaFromParams(const util::ParamMap& params) {
  return util::ReadParams(kPaParams, params);
}

void AppendGsParams(const GsConfig& config, util::ParamMap* params) {
  util::WriteParams(kGsParams, config, params);
}

GsConfig GsFromParams(const util::ParamMap& params) {
  return util::ReadParams(kGsParams, params);
}

void AppendIyerParams(const IyerRuleController::Config& config,
                      util::ParamMap* params) {
  util::WriteParams(kIyerParams, config, params);
}

IyerRuleController::Config IyerFromParams(const util::ParamMap& params) {
  return util::ReadParams(kIyerParams, params);
}

ControllerRegistry BuiltinRegistry(ControllerRegistry*) {
  ControllerRegistry registry("controller");
  registry.Register<NoControlController>("none");
  registry.Register("fixed", [](const ControllerContext& context) {
    return std::make_unique<FixedLimitController>(
        util::ReadParams(kFixedParams, *context.params).limit);
  });
  registry.Register("tay-rule", [](const ControllerContext& context) {
    // The rule reads the *declared* workload descriptor k(t); without a
    // provider it degenerates to the constant default k.
    std::function<double(double)> k = context.k_of_time;
    if (!k) k = [](double) { return 16.0; };
    return std::make_unique<TayRuleController>(
        context.db_size, std::move(k),
        util::ReadParams(kTayParams, *context.params).threshold);
  });
  registry.Register("iyer-rule", [](const ControllerContext& context) {
    return std::make_unique<IyerRuleController>(
        IyerFromParams(*context.params));
  });
  registry.Register("incremental-steps", [](const ControllerContext& context) {
    return std::make_unique<IncrementalStepsController>(
        IsFromParams(*context.params));
  });
  registry.Register(
      "parabola-approximation", [](const ControllerContext& context) {
        return std::make_unique<ParabolaApproximationController>(
            PaFromParams(*context.params));
      });
  registry.Register("golden-section", [](const ControllerContext& context) {
    return std::make_unique<GoldenSectionController>(
        GsFromParams(*context.params));
  });
  return registry;
}

}  // namespace alc::control
