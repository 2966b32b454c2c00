#include "workload/registry.h"

#include "workload/session.h"

namespace alc::workload {

WorkloadRegistry BuiltinRegistry(WorkloadRegistry*) {
  WorkloadRegistry registry("workload source");
  registry.Register("open", [](const WorkloadSourceContext& context) {
    return std::make_unique<OpenArrivalSource>(
        context.arrival_rate, context.seed ^ kOpenArrivalSeedSalt);
  });
  registry.Register("closed", [](const WorkloadSourceContext& context) {
    return std::make_unique<SessionWorkload>(SessionWorkload::Mode::kClosed,
                                             *context.spec, context.seed);
  });
  registry.Register("hybrid", [](const WorkloadSourceContext& context) {
    return std::make_unique<SessionWorkload>(SessionWorkload::Mode::kHybrid,
                                             *context.spec, context.seed);
  });
  return registry;
}

}  // namespace alc::workload
