#ifndef ALC_CONTROL_REGISTRY_H_
#define ALC_CONTROL_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "control/controller.h"
#include "control/golden_section.h"
#include "control/incremental_steps.h"
#include "control/parabola.h"
#include "control/rules.h"
#include "util/params.h"

namespace alc::control {

/// Everything a controller factory may consume. `params` carries the
/// string-keyed configuration (canonical keys are namespaced per family:
/// "pa.dither", "is.beta", "fixed.limit", ...); the remaining fields are
/// node-derived context that cannot be expressed as scalars — the Tay
/// rule needs the declared database size and k(t) schedule.
struct ControllerContext {
  const util::ParamMap* params = nullptr;  // never null inside a factory
  double db_size = 0.0;
  std::function<double(double)> k_of_time;  // may be empty
};

using ControllerFactory =
    std::function<std::unique_ptr<LoadController>(const ControllerContext&)>;

/// String-keyed factory registry for load controllers. The built-in zoo
/// (none, fixed, tay-rule, iyer-rule, incremental-steps,
/// parabola-approximation, golden-section) self-registers; user code — an
/// example binary, a bench, a test — registers additional policies with
/// Register() and then runs them by name through a node's
/// `control.controller` in an ExperimentSpec, with no core edits.
///
/// Registration must finish before concurrent Make() calls begin (the sweep
/// runner constructs controllers from worker threads; the registry itself
/// takes no locks).
class ControllerRegistry {
 public:
  /// The process-wide registry, built-ins pre-registered.
  static ControllerRegistry& Global();

  /// False (and no change) when `name` is already taken.
  bool Register(const std::string& name, ControllerFactory factory);

  bool Contains(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Builds the named controller. Null on unknown name; `error` (optional)
  /// then receives a message listing the registered names.
  std::unique_ptr<LoadController> Make(const std::string& name,
                                       const ControllerContext& context,
                                       std::string* error = nullptr) const;

 private:
  ControllerRegistry();

  std::map<std::string, ControllerFactory> factories_;
};

/// Struct <-> ParamMap serialization for the built-in controller configs.
/// The Append* writers emit exactly the keys the factories read, so a
/// config survives struct -> params -> struct unchanged; spec files and
/// sweep overrides use the same keys.
void AppendIsParams(const IsConfig& config, util::ParamMap* params);
IsConfig IsFromParams(const util::ParamMap& params);

void AppendPaParams(const PaConfig& config, util::ParamMap* params);
PaConfig PaFromParams(const util::ParamMap& params);

void AppendGsParams(const GsConfig& config, util::ParamMap* params);
GsConfig GsFromParams(const util::ParamMap& params);

void AppendIyerParams(const IyerRuleController::Config& config,
                      util::ParamMap* params);
IyerRuleController::Config IyerFromParams(const util::ParamMap& params);

/// Checks that `value` parses as the type the built-in factories read key
/// `key` as (a number, an integer, or an enum name). Keys no built-in reads
/// pass: they belong to externally registered controllers. Lets the spec
/// layer reject a malformed value with a message at parse or override time
/// instead of the factory aborting when the run starts.
bool ValidateControllerParam(const std::string& key, const std::string& value,
                             std::string* error);

/// Enum <-> name helpers used by the param serializers and the spec layer.
const char* PerformanceIndexName(PerformanceIndex index);
bool ParsePerformanceIndex(std::string_view name, PerformanceIndex* out);
const char* PaRecoveryPolicyName(PaRecoveryPolicy policy);
bool ParsePaRecoveryPolicy(std::string_view name, PaRecoveryPolicy* out);

}  // namespace alc::control

#endif  // ALC_CONTROL_REGISTRY_H_
