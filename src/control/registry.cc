#include "control/registry.h"

#include <utility>

#include "control/fixed.h"
#include "util/check.h"

namespace alc::control {

namespace {

PerformanceIndex IndexParam(const util::ParamMap& params,
                            const std::string& key, PerformanceIndex fallback) {
  const std::string* value = params.Find(key);
  if (value == nullptr) return fallback;
  PerformanceIndex index = fallback;
  ALC_CHECK(ParsePerformanceIndex(*value, &index));
  return index;
}

bool IsIndexText(const std::string& text) {
  PerformanceIndex parsed;
  return ParsePerformanceIndex(text, &parsed);
}

bool IsRecoveryText(const std::string& text) {
  PaRecoveryPolicy parsed;
  return ParsePaRecoveryPolicy(text, &parsed);
}

constexpr util::ParamType kIndexParam{
    IsIndexText, "throughput/inverse-response-time/effective-cpu-utilization"};
constexpr util::ParamType kRecoveryParam{IsRecoveryText,
                                         "hold/gradient/contract/reset"};

/// Every key the built-in factories read, with the type they parse it as.
/// A sign bound is the check of the controller constructor reading the key;
/// the min_bound < max_bound orderings are core::ValidateSpec's.
constexpr util::TypedParam kBuiltinParams[] = {
    {"fixed.limit", util::kDoubleParam},
    {"tay.threshold", util::kPositiveDoubleParam},
    {"iyer.target_conflicts", util::kDoubleParam},
    {"iyer.gain", util::kPositiveDoubleParam},
    {"iyer.initial_bound", util::kDoubleParam},
    {"iyer.min_bound", util::kPositiveDoubleParam},
    {"iyer.max_bound", util::kDoubleParam},
    {"is.beta", util::kPositiveDoubleParam},
    {"is.gamma", util::kPositiveDoubleParam},
    {"is.delta", util::kNonNegativeDoubleParam},
    {"is.initial_bound", util::kDoubleParam},
    {"is.min_bound", util::kPositiveDoubleParam},
    {"is.max_bound", util::kDoubleParam},
    {"is.index", kIndexParam},
    {"pa.forgetting", util::kDoubleParam},
    {"pa.initial_covariance", util::kDoubleParam},
    {"pa.initial_bound", util::kDoubleParam},
    {"pa.min_bound", util::kPositiveDoubleParam},
    {"pa.max_bound", util::kPositiveDoubleParam},
    {"pa.dither", util::kNonNegativeDoubleParam},
    {"pa.warmup_updates", util::kNonNegativeIntParam},
    {"pa.recovery_step", util::kDoubleParam},
    {"pa.reset_after_failures", util::kIntParam},
    {"pa.max_excitation_boost", util::kDoubleParam},
    {"pa.recovery", kRecoveryParam},
    {"pa.index", kIndexParam},
    {"gs.min_bound", util::kDoubleParam},
    {"gs.max_bound", util::kDoubleParam},
    {"gs.samples_per_probe", util::kPositiveIntParam},
    {"gs.min_bracket", util::kPositiveDoubleParam},
    {"gs.restart_width_factor", util::kDoubleParam},
    {"gs.index", kIndexParam},
};

}  // namespace

bool ValidateControllerParam(const std::string& key, const std::string& value,
                             std::string* error) {
  return util::CheckTypedParam(kBuiltinParams, "controller param", key, value,
                               error);
}

const char* PerformanceIndexName(PerformanceIndex index) {
  switch (index) {
    case PerformanceIndex::kThroughput:
      return "throughput";
    case PerformanceIndex::kInverseResponseTime:
      return "inverse-response-time";
    case PerformanceIndex::kEffectiveCpuUtilization:
      return "effective-cpu-utilization";
  }
  return "?";
}

bool ParsePerformanceIndex(std::string_view name, PerformanceIndex* out) {
  if (name == "throughput") {
    *out = PerformanceIndex::kThroughput;
  } else if (name == "inverse-response-time") {
    *out = PerformanceIndex::kInverseResponseTime;
  } else if (name == "effective-cpu-utilization") {
    *out = PerformanceIndex::kEffectiveCpuUtilization;
  } else {
    return false;
  }
  return true;
}

const char* PaRecoveryPolicyName(PaRecoveryPolicy policy) {
  switch (policy) {
    case PaRecoveryPolicy::kHold:
      return "hold";
    case PaRecoveryPolicy::kGradient:
      return "gradient";
    case PaRecoveryPolicy::kContract:
      return "contract";
    case PaRecoveryPolicy::kReset:
      return "reset";
  }
  return "?";
}

bool ParsePaRecoveryPolicy(std::string_view name, PaRecoveryPolicy* out) {
  if (name == "hold") {
    *out = PaRecoveryPolicy::kHold;
  } else if (name == "gradient") {
    *out = PaRecoveryPolicy::kGradient;
  } else if (name == "contract") {
    *out = PaRecoveryPolicy::kContract;
  } else if (name == "reset") {
    *out = PaRecoveryPolicy::kReset;
  } else {
    return false;
  }
  return true;
}

void AppendIsParams(const IsConfig& config, util::ParamMap* params) {
  params->SetDouble("is.beta", config.beta);
  params->SetDouble("is.gamma", config.gamma);
  params->SetDouble("is.delta", config.delta);
  params->SetDouble("is.initial_bound", config.initial_bound);
  params->SetDouble("is.min_bound", config.min_bound);
  params->SetDouble("is.max_bound", config.max_bound);
  params->Set("is.index", PerformanceIndexName(config.index));
}

IsConfig IsFromParams(const util::ParamMap& params) {
  IsConfig config;
  config.beta = params.GetDouble("is.beta", config.beta);
  config.gamma = params.GetDouble("is.gamma", config.gamma);
  config.delta = params.GetDouble("is.delta", config.delta);
  config.initial_bound =
      params.GetDouble("is.initial_bound", config.initial_bound);
  config.min_bound = params.GetDouble("is.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("is.max_bound", config.max_bound);
  config.index = IndexParam(params, "is.index", config.index);
  return config;
}

void AppendPaParams(const PaConfig& config, util::ParamMap* params) {
  params->SetDouble("pa.forgetting", config.forgetting);
  params->SetDouble("pa.initial_covariance", config.initial_covariance);
  params->SetDouble("pa.initial_bound", config.initial_bound);
  params->SetDouble("pa.min_bound", config.min_bound);
  params->SetDouble("pa.max_bound", config.max_bound);
  params->SetDouble("pa.dither", config.dither);
  params->SetInt("pa.warmup_updates", config.warmup_updates);
  params->SetDouble("pa.recovery_step", config.recovery_step);
  params->SetInt("pa.reset_after_failures", config.reset_after_failures);
  params->SetDouble("pa.max_excitation_boost", config.max_excitation_boost);
  params->Set("pa.recovery", PaRecoveryPolicyName(config.recovery));
  params->Set("pa.index", PerformanceIndexName(config.index));
}

PaConfig PaFromParams(const util::ParamMap& params) {
  PaConfig config;
  config.forgetting = params.GetDouble("pa.forgetting", config.forgetting);
  config.initial_covariance =
      params.GetDouble("pa.initial_covariance", config.initial_covariance);
  config.initial_bound =
      params.GetDouble("pa.initial_bound", config.initial_bound);
  config.min_bound = params.GetDouble("pa.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("pa.max_bound", config.max_bound);
  config.dither = params.GetDouble("pa.dither", config.dither);
  config.warmup_updates =
      params.GetInt("pa.warmup_updates", config.warmup_updates);
  config.recovery_step =
      params.GetDouble("pa.recovery_step", config.recovery_step);
  config.reset_after_failures =
      params.GetInt("pa.reset_after_failures", config.reset_after_failures);
  config.max_excitation_boost =
      params.GetDouble("pa.max_excitation_boost", config.max_excitation_boost);
  if (const std::string* value = params.Find("pa.recovery")) {
    ALC_CHECK(ParsePaRecoveryPolicy(*value, &config.recovery));
  }
  config.index = IndexParam(params, "pa.index", config.index);
  return config;
}

void AppendGsParams(const GsConfig& config, util::ParamMap* params) {
  params->SetDouble("gs.min_bound", config.min_bound);
  params->SetDouble("gs.max_bound", config.max_bound);
  params->SetInt("gs.samples_per_probe", config.samples_per_probe);
  params->SetDouble("gs.min_bracket", config.min_bracket);
  params->SetDouble("gs.restart_width_factor", config.restart_width_factor);
  params->Set("gs.index", PerformanceIndexName(config.index));
}

GsConfig GsFromParams(const util::ParamMap& params) {
  GsConfig config;
  config.min_bound = params.GetDouble("gs.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("gs.max_bound", config.max_bound);
  config.samples_per_probe =
      params.GetInt("gs.samples_per_probe", config.samples_per_probe);
  config.min_bracket = params.GetDouble("gs.min_bracket", config.min_bracket);
  config.restart_width_factor =
      params.GetDouble("gs.restart_width_factor", config.restart_width_factor);
  config.index = IndexParam(params, "gs.index", config.index);
  return config;
}

void AppendIyerParams(const IyerRuleController::Config& config,
                      util::ParamMap* params) {
  params->SetDouble("iyer.target_conflicts", config.target_conflicts);
  params->SetDouble("iyer.gain", config.gain);
  params->SetDouble("iyer.initial_bound", config.initial_bound);
  params->SetDouble("iyer.min_bound", config.min_bound);
  params->SetDouble("iyer.max_bound", config.max_bound);
}

IyerRuleController::Config IyerFromParams(const util::ParamMap& params) {
  IyerRuleController::Config config;
  config.target_conflicts =
      params.GetDouble("iyer.target_conflicts", config.target_conflicts);
  config.gain = params.GetDouble("iyer.gain", config.gain);
  config.initial_bound =
      params.GetDouble("iyer.initial_bound", config.initial_bound);
  config.min_bound = params.GetDouble("iyer.min_bound", config.min_bound);
  config.max_bound = params.GetDouble("iyer.max_bound", config.max_bound);
  return config;
}

ControllerRegistry::ControllerRegistry() {
  Register("none", [](const ControllerContext&) {
    return std::make_unique<NoControlController>();
  });
  Register("fixed", [](const ControllerContext& context) {
    return std::make_unique<FixedLimitController>(
        context.params->GetDouble("fixed.limit", 50.0));
  });
  Register("tay-rule", [](const ControllerContext& context) {
    // The rule reads the *declared* workload descriptor k(t); without a
    // provider it degenerates to the constant default k.
    std::function<double(double)> k = context.k_of_time;
    if (!k) k = [](double) { return 16.0; };
    return std::make_unique<TayRuleController>(
        context.db_size, std::move(k),
        context.params->GetDouble("tay.threshold", 1.5));
  });
  Register("iyer-rule", [](const ControllerContext& context) {
    return std::make_unique<IyerRuleController>(
        IyerFromParams(*context.params));
  });
  Register("incremental-steps", [](const ControllerContext& context) {
    return std::make_unique<IncrementalStepsController>(
        IsFromParams(*context.params));
  });
  Register("parabola-approximation", [](const ControllerContext& context) {
    return std::make_unique<ParabolaApproximationController>(
        PaFromParams(*context.params));
  });
  Register("golden-section", [](const ControllerContext& context) {
    return std::make_unique<GoldenSectionController>(
        GsFromParams(*context.params));
  });
}

ControllerRegistry& ControllerRegistry::Global() {
  static ControllerRegistry* registry = new ControllerRegistry();
  return *registry;
}

bool ControllerRegistry::Register(const std::string& name,
                                  ControllerFactory factory) {
  ALC_CHECK(factory != nullptr);
  return factories_.emplace(name, std::move(factory)).second;
}

bool ControllerRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> ControllerRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

std::unique_ptr<LoadController> ControllerRegistry::Make(
    const std::string& name, const ControllerContext& context,
    std::string* error) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    if (error != nullptr) {
      *error = "unknown controller '" + name + "'; registered:";
      for (const auto& [known, factory] : factories_) *error += " " + known;
    }
    return nullptr;
  }
  ALC_CHECK(context.params != nullptr);
  return it->second(context);
}

}  // namespace alc::control
