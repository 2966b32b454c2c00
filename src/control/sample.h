#ifndef ALC_CONTROL_SAMPLE_H_
#define ALC_CONTROL_SAMPLE_H_

namespace alc::control {

/// One measurement-interval observation handed to a load controller (paper
/// section 3: "all information we can obtain is the series of realized
/// load/performance pairs from the past").
struct Sample {
  double time = 0.0;         // end of the interval
  double interval = 0.0;     // interval length (s)
  double throughput = 0.0;   // commits per second in the interval
  double mean_active = 0.0;  // time-averaged load n(t) over the interval
  double mean_response = 0.0;   // mean response time of interval commits (s)
  double conflict_rate = 0.0;   // aborts per commit (conflicts/transaction)
  double abort_rate = 0.0;      // aborts per second
  double mean_blocked = 0.0;    // time-averaged blocked transactions (2PL)
  double gate_queue = 0.0;      // time-averaged admission-queue length
  double cpu_utilization = 0.0; // fraction of processor-seconds used
  double useful_cpu_fraction = 0.0;  // useful / (useful + wasted) CPU
  long long commits = 0;        // raw commit count (estimation accuracy)

  // Response-time percentiles of the interval's commits, from the
  // monitor's telemetry::HistogramWindow (zero when no commits landed in
  // the interval). Few-commit intervals make the tails coarse — p999 of 40
  // commits is just the maximum — but the columns stay comparable across
  // ticks and nodes because the bucketing is fixed.
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  double response_p999 = 0.0;
};

/// Which scalar a controller maximizes (reconstruction of paper section 6,
/// which is truncated in the source text; the paper concludes throughput is
/// the most significant indicator and uses it throughout).
enum class PerformanceIndex {
  kThroughput,
  kInverseResponseTime,
  kEffectiveCpuUtilization,
};

/// Extracts the selected performance value from a sample.
double PerformanceValue(const Sample& sample, PerformanceIndex index);

}  // namespace alc::control

#endif  // ALC_CONTROL_SAMPLE_H_
