#ifndef ALC_CLUSTER_REGISTRY_H_
#define ALC_CLUSTER_REGISTRY_H_

#include <cstdint>
#include <string>

#include "cluster/router.h"
#include "util/params.h"
#include "util/registry.h"

namespace alc::cluster {

/// What a routing-policy factory may consume: the string-keyed parameters
/// (canonical keys namespaced per policy: "threshold.initial_threshold",
/// "power-of-d.d", ...) and the seed for the policy's private random
/// stream.
struct RoutingPolicyContext {
  const util::ParamMap* params = nullptr;  // never null inside a factory
  uint64_t seed = 0;
};

/// Routing policies by name: built-ins come with Global(), user code adds
/// policies and selects them through an ExperimentSpec's `routing` key.
using RoutingPolicyRegistry = util::Registry<RoutingPolicy, RoutingPolicyContext>;
RoutingPolicyRegistry BuiltinRegistry(RoutingPolicyRegistry*);

/// Struct <-> ParamMap serialization for the built-in policy configs, each
/// derived from the config's param table; the writers emit exactly the keys
/// the factories read.
void AppendThresholdParams(const ThresholdPolicy::Config& config,
                           util::ParamMap* params);
ThresholdPolicy::Config ThresholdFromParams(const util::ParamMap& params);

void AppendPowerOfDParams(const PowerOfDPolicy::Config& config,
                          util::ParamMap* params);
PowerOfDPolicy::Config PowerOfDFromParams(const util::ParamMap& params);

/// Checks `value` against the row of `key` in the built-in param tables
/// (util::CheckParam); keys no built-in reads pass.
bool ValidateRoutingParam(const std::string& key, const std::string& value,
                          std::string* error);

}  // namespace alc::cluster

#endif  // ALC_CLUSTER_REGISTRY_H_
