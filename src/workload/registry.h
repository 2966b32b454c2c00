#ifndef ALC_WORKLOAD_REGISTRY_H_
#define ALC_WORKLOAD_REGISTRY_H_

#include <cstdint>

#include "util/registry.h"
#include "workload/source.h"

namespace alc::workload {

/// What a workload-source factory may consume: the parsed [workload] spec
/// section, the experiment's arrival-rate schedule (the open source's
/// drive), and the experiment seed (factories apply their own salts).
struct WorkloadSourceContext {
  const WorkloadSpec* spec = nullptr;  // never null inside a factory
  db::Schedule arrival_rate;
  uint64_t seed = 0;
};

/// Workload sources by name: the built-ins ("open", "closed", "hybrid")
/// come with Global(), user code adds sources and selects them through
/// `[workload] source = name`.
using WorkloadRegistry = util::Registry<WorkloadSource, WorkloadSourceContext>;
WorkloadRegistry BuiltinRegistry(WorkloadRegistry*);

}  // namespace alc::workload

#endif  // ALC_WORKLOAD_REGISTRY_H_
