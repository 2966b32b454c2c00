#ifndef ALC_CONTROL_REGISTRY_H_
#define ALC_CONTROL_REGISTRY_H_

#include <functional>
#include <string>

#include "control/controller.h"
#include "control/golden_section.h"
#include "control/incremental_steps.h"
#include "control/parabola.h"
#include "control/rules.h"
#include "util/params.h"
#include "util/registry.h"

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

/// Load controllers by name. The built-in zoo (none, fixed, tay-rule,
/// iyer-rule, incremental-steps, parabola-approximation, golden-section)
/// comes with Global(); user code registers more and runs them through a
/// node's `control.controller` in an ExperimentSpec.
using ControllerRegistry = util::Registry<LoadController, ControllerContext>;
ControllerRegistry BuiltinRegistry(ControllerRegistry*);

/// Struct <-> ParamMap serialization for the built-in controller configs,
/// each derived from the config's param table. The Append* writers emit
/// exactly the keys the factories read, so a config survives struct ->
/// params -> struct unchanged; spec files and sweep overrides use the same
/// keys.
/// The fixed limiter's one param.
struct FixedConfig {
  double limit = 50.0;
};
void AppendFixedParams(const FixedConfig& config, util::ParamMap* params);

void AppendIsParams(const IsConfig& config, util::ParamMap* params);
IsConfig IsFromParams(const util::ParamMap& params);

void AppendPaParams(const PaConfig& config, util::ParamMap* params);
PaConfig PaFromParams(const util::ParamMap& params);

void AppendGsParams(const GsConfig& config, util::ParamMap* params);
GsConfig GsFromParams(const util::ParamMap& params);

void AppendIyerParams(const IyerRuleController::Config& config,
                      util::ParamMap* params);
IyerRuleController::Config IyerFromParams(const util::ParamMap& params);

/// Checks `value` against the row of `key` in the built-in param tables (a
/// number, an integer, or an enum name, with the bound the controller's
/// constructor checks). Keys no built-in reads pass: they belong to
/// externally registered controllers. Lets the spec layer reject a bad
/// value with a message at parse or override time instead of the factory
/// aborting when the run starts.
bool ValidateControllerParam(const std::string& key, const std::string& value,
                             std::string* error);

/// The name a performance index has in params ("throughput", ...).
const char* PerformanceIndexName(PerformanceIndex index);

}  // namespace alc::control

#endif  // ALC_CONTROL_REGISTRY_H_
