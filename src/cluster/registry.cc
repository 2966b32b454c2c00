#include "cluster/registry.h"

#include <utility>

#include "util/check.h"

namespace alc::cluster {

void AppendThresholdParams(const ThresholdPolicy::Config& config,
                           util::ParamMap* params) {
  params->SetDouble("threshold.initial_threshold", config.initial_threshold);
  params->SetDouble("threshold.min_threshold", config.min_threshold);
  params->SetDouble("threshold.max_threshold", config.max_threshold);
}

ThresholdPolicy::Config ThresholdFromParams(const util::ParamMap& params) {
  ThresholdPolicy::Config config;
  config.initial_threshold =
      params.GetDouble("threshold.initial_threshold", config.initial_threshold);
  config.min_threshold =
      params.GetDouble("threshold.min_threshold", config.min_threshold);
  config.max_threshold =
      params.GetDouble("threshold.max_threshold", config.max_threshold);
  return config;
}

void AppendPowerOfDParams(const PowerOfDPolicy::Config& config,
                          util::ParamMap* params) {
  params->SetInt("power-of-d.d", config.d);
}

PowerOfDPolicy::Config PowerOfDFromParams(const util::ParamMap& params) {
  PowerOfDPolicy::Config config;
  config.d = params.GetInt("power-of-d.d", config.d);
  return config;
}

bool ValidateRoutingParam(const std::string& key, const std::string& value,
                          std::string* error) {
  static constexpr util::TypedParam kBuiltinParams[] = {
      {"threshold.initial_threshold", util::kDoubleParam},
      {"threshold.min_threshold", util::kDoubleParam},
      {"threshold.max_threshold", util::kDoubleParam},
      {"power-of-d.d", util::kIntParam},
  };
  return util::CheckTypedParam(kBuiltinParams, "routing param", key, value,
                               error);
}

RoutingPolicyRegistry::RoutingPolicyRegistry() {
  Register("round-robin", [](const RoutingPolicyContext&) {
    return std::make_unique<RoundRobinPolicy>();
  });
  Register("random", [](const RoutingPolicyContext& context) {
    return std::make_unique<RandomPolicy>(context.seed);
  });
  Register("join-shortest-queue", [](const RoutingPolicyContext&) {
    return std::make_unique<JoinShortestQueuePolicy>();
  });
  Register("threshold", [](const RoutingPolicyContext& context) {
    return std::make_unique<ThresholdPolicy>(
        ThresholdFromParams(*context.params));
  });
  Register("power-of-d", [](const RoutingPolicyContext& context) {
    return std::make_unique<PowerOfDPolicy>(PowerOfDFromParams(*context.params),
                                            context.seed);
  });
  Register("locality", [](const RoutingPolicyContext&) {
    return std::make_unique<LocalityPolicy>();
  });
  Register("locality-threshold", [](const RoutingPolicyContext&) {
    return std::make_unique<LocalityThresholdPolicy>();
  });
}

RoutingPolicyRegistry& RoutingPolicyRegistry::Global() {
  static RoutingPolicyRegistry* registry = new RoutingPolicyRegistry();
  return *registry;
}

bool RoutingPolicyRegistry::Register(const std::string& name,
                                     RoutingPolicyFactory factory) {
  ALC_CHECK(factory != nullptr);
  return factories_.emplace(name, std::move(factory)).second;
}

bool RoutingPolicyRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> RoutingPolicyRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

std::unique_ptr<RoutingPolicy> RoutingPolicyRegistry::Make(
    const std::string& name, const RoutingPolicyContext& context,
    std::string* error) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    if (error != nullptr) {
      *error = "unknown routing policy '" + name + "'; registered:";
      for (const auto& [known, factory] : factories_) *error += " " + known;
    }
    return nullptr;
  }
  ALC_CHECK(context.params != nullptr);
  return it->second(context);
}

}  // namespace alc::cluster
