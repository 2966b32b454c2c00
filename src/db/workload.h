#ifndef ALC_DB_WORKLOAD_H_
#define ALC_DB_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "db/schedule.h"

namespace alc::db {

/// Time-varying workload characteristics (paper section 7: "the dynamic
/// change of the load characteristic was carried out by varying ... k, the
/// number of locks per transaction; fraction of queries; fraction of write
/// accesses for updaters"). The defaults are the paper's stationary mix.
struct WorkloadDynamics {
  Schedule k = Schedule::Constant(16);
  Schedule query_fraction = Schedule::Constant(0.3);
  Schedule write_fraction = Schedule::Constant(0.25);

  /// k at time t, rounded and clamped to [1, db_size].
  int KAt(double t, uint32_t db_size) const;
  double QueryFractionAt(double t) const;
  double WriteFractionAt(double t) const;

  /// Union of step change points across all three schedules, sorted.
  std::vector<double> ChangePoints() const;

  bool operator==(const WorkloadDynamics& other) const {
    return k == other.k && query_fraction == other.query_fraction &&
           write_fraction == other.write_fraction;
  }
  bool operator!=(const WorkloadDynamics& other) const {
    return !(*this == other);
  }
};

}  // namespace alc::db

#endif  // ALC_DB_WORKLOAD_H_
