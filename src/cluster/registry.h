#ifndef ALC_CLUSTER_REGISTRY_H_
#define ALC_CLUSTER_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "util/params.h"

namespace alc::cluster {

/// What a routing-policy factory may consume: the string-keyed parameters
/// (canonical keys namespaced per policy: "threshold.initial_threshold",
/// "power-of-d.d", ...) and the seed for the policy's private random
/// stream.
struct RoutingPolicyContext {
  const util::ParamMap* params = nullptr;  // never null inside a factory
  uint64_t seed = 0;
};

using RoutingPolicyFactory =
    std::function<std::unique_ptr<RoutingPolicy>(const RoutingPolicyContext&)>;

/// String-keyed factory registry for routing policies, mirroring
/// control::ControllerRegistry: built-ins self-register, user code can add
/// policies by name and select them through an ExperimentSpec's `routing`
/// key with no core edits. Registration must finish before
/// concurrent Make() calls begin (the registry takes no locks).
class RoutingPolicyRegistry {
 public:
  static RoutingPolicyRegistry& Global();

  /// False (and no change) when `name` is already taken.
  bool Register(const std::string& name, RoutingPolicyFactory factory);

  bool Contains(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Builds the named policy. Null on unknown name; `error` (optional)
  /// then receives a message listing the registered names.
  std::unique_ptr<RoutingPolicy> Make(const std::string& name,
                                      const RoutingPolicyContext& context,
                                      std::string* error = nullptr) const;

 private:
  RoutingPolicyRegistry();

  std::map<std::string, RoutingPolicyFactory> factories_;
};

/// Struct <-> ParamMap serialization for the built-in policy configs; the
/// writers emit exactly the keys the factories read.
void AppendThresholdParams(const ThresholdPolicy::Config& config,
                           util::ParamMap* params);
ThresholdPolicy::Config ThresholdFromParams(const util::ParamMap& params);

void AppendPowerOfDParams(const PowerOfDPolicy::Config& config,
                          util::ParamMap* params);
PowerOfDPolicy::Config PowerOfDFromParams(const util::ParamMap& params);

/// Checks that `value` parses as the type the built-in policies read `key`
/// as (util::CheckTypedParam); keys no built-in reads pass.
bool ValidateRoutingParam(const std::string& key, const std::string& value,
                          std::string* error);

}  // namespace alc::cluster

#endif  // ALC_CLUSTER_REGISTRY_H_
