#include "db/workload.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"

namespace alc::db {

int WorkloadDynamics::KAt(double t, uint32_t db_size) const {
  const double raw = std::round(k.Value(t));
  return static_cast<int>(
      util::Clamp(raw, 1.0, static_cast<double>(db_size)));
}

double WorkloadDynamics::QueryFractionAt(double t) const {
  return util::Clamp(query_fraction.Value(t), 0.0, 1.0);
}

double WorkloadDynamics::WriteFractionAt(double t) const {
  return util::Clamp(write_fraction.Value(t), 0.0, 1.0);
}

std::vector<double> WorkloadDynamics::ChangePoints() const {
  std::vector<double> points;
  for (const Schedule* schedule : {&k, &query_fraction, &write_fraction}) {
    auto cps = schedule->ChangePoints();
    points.insert(points.end(), cps.begin(), cps.end());
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

}  // namespace alc::db
