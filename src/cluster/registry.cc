#include "cluster/registry.h"

namespace alc::cluster {

namespace {

// A row's bound is the check of the policy constructor reading the key;
// the threshold orderings are core::ValidateSpec's.
using util::Param;
using ThresholdConfig = ThresholdPolicy::Config;
constexpr util::ParamField<ThresholdConfig> kThresholdParams[] = {
    Param<&ThresholdConfig::initial_threshold>("threshold.initial_threshold",
                                               util::kDoubleParam),
    Param<&ThresholdConfig::min_threshold>("threshold.min_threshold",
                                           util::kAtLeastOneDoubleParam),
    Param<&ThresholdConfig::max_threshold>("threshold.max_threshold",
                                           util::kDoubleParam),
};
constexpr util::ParamField<PowerOfDPolicy::Config> kPowerOfDParams[] = {
    Param<&PowerOfDPolicy::Config::d>("power-of-d.d", util::kPositiveIntParam),
};

}  // namespace

void AppendThresholdParams(const ThresholdPolicy::Config& config,
                           util::ParamMap* params) {
  util::WriteParams(kThresholdParams, config, params);
}

ThresholdPolicy::Config ThresholdFromParams(const util::ParamMap& params) {
  return util::ReadParams(kThresholdParams, params);
}

void AppendPowerOfDParams(const PowerOfDPolicy::Config& config,
                          util::ParamMap* params) {
  util::WriteParams(kPowerOfDParams, config, params);
}

PowerOfDPolicy::Config PowerOfDFromParams(const util::ParamMap& params) {
  return util::ReadParams(kPowerOfDParams, params);
}

bool ValidateRoutingParam(const std::string& key, const std::string& value,
                          std::string* error) {
  return util::CheckParam("routing param", key, value, error,
                          kThresholdParams, kPowerOfDParams);
}

RoutingPolicyRegistry BuiltinRegistry(RoutingPolicyRegistry*) {
  RoutingPolicyRegistry registry("routing policy");
  registry.Register<RoundRobinPolicy>("round-robin");
  registry.Register("random", [](const RoutingPolicyContext& context) {
    return std::make_unique<RandomPolicy>(context.seed);
  });
  registry.Register<JoinShortestQueuePolicy>("join-shortest-queue");
  registry.Register("threshold", [](const RoutingPolicyContext& context) {
    return std::make_unique<ThresholdPolicy>(
        ThresholdFromParams(*context.params));
  });
  registry.Register("power-of-d", [](const RoutingPolicyContext& context) {
    return std::make_unique<PowerOfDPolicy>(PowerOfDFromParams(*context.params),
                                            context.seed);
  });
  registry.Register<LocalityPolicy>("locality");
  registry.Register<LocalityThresholdPolicy>("locality-threshold");
  return registry;
}

}  // namespace alc::cluster
