#include "telemetry/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/check.h"
#include "util/params.h"

namespace alc::telemetry {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

uint64_t* MetricRegistry::Counter(const std::string& name) {
  owned_counters_.push_back(0);
  uint64_t* slot = &owned_counters_.back();
  Entry entry;
  entry.name = name;
  entry.kind = MetricKind::kCounter;
  entry.counter = slot;
  entries_.push_back(std::move(entry));
  return slot;
}

double* MetricRegistry::Gauge(const std::string& name) {
  owned_gauges_.push_back(0.0);
  double* slot = &owned_gauges_.back();
  Entry entry;
  entry.name = name;
  entry.kind = MetricKind::kGauge;
  entry.gauge = slot;
  entries_.push_back(std::move(entry));
  return slot;
}

LogHistogram* MetricRegistry::Histogram(const std::string& name) {
  owned_hists_.emplace_back();
  LogHistogram* slot = &owned_hists_.back();
  Entry entry;
  entry.name = name;
  entry.kind = MetricKind::kHistogram;
  entry.hist = slot;
  entries_.push_back(std::move(entry));
  return slot;
}

void MetricRegistry::LinkCounter(const std::string& name,
                                 const uint64_t* value) {
  ALC_CHECK(value != nullptr);
  Entry entry;
  entry.name = name;
  entry.kind = MetricKind::kCounter;
  entry.counter = value;
  entries_.push_back(std::move(entry));
}

void MetricRegistry::LinkGauge(const std::string& name, const double* value) {
  ALC_CHECK(value != nullptr);
  Entry entry;
  entry.name = name;
  entry.kind = MetricKind::kGauge;
  entry.gauge = value;
  entries_.push_back(std::move(entry));
}

void MetricRegistry::LinkHistogram(const std::string& name,
                                   const LogHistogram* hist) {
  ALC_CHECK(hist != nullptr);
  Entry entry;
  entry.name = name;
  entry.kind = MetricKind::kHistogram;
  entry.hist = hist;
  entries_.push_back(std::move(entry));
}

std::vector<MetricSample> MetricRegistry::Snapshot() const {
  // Sorts pointers, not samples: a sample carries its name and eight more
  // fields, and a fleet registry holds over a thousand of them.
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& entry : entries_) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return a->name < b->name;
  });
  // Duplicate names would make the snapshot ambiguous; after the sort they
  // are neighbours.
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i]->name == sorted[i - 1]->name) {
      std::fprintf(stderr, "MetricRegistry: metric '%s' registered twice\n",
                   sorted[i]->name.c_str());
      std::abort();
    }
  }
  std::vector<MetricSample> out(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Entry& entry = *sorted[i];
    MetricSample& sample = out[i];
    sample.name = entry.name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(*entry.counter);
        sample.count = *entry.counter;
        break;
      case MetricKind::kGauge:
        sample.value = *entry.gauge;
        break;
      case MetricKind::kHistogram:
        sample.count = entry.hist->count();
        sample.mean = entry.hist->mean();
        sample.p50 = entry.hist->Quantile(0.50);
        sample.p95 = entry.hist->Quantile(0.95);
        sample.p99 = entry.hist->Quantile(0.99);
        sample.p999 = entry.hist->Quantile(0.999);
        break;
    }
  }
  return out;
}

void MetricRegistry::WriteSnapshotJson(
    std::ostream& out, const std::vector<MetricSample>& snapshot) {
  out << '{';
  bool first = true;
  for (const MetricSample& sample : snapshot) {
    if (!first) out << ',';
    first = false;
    out << '"' << sample.name << "\":";
    switch (sample.kind) {
      case MetricKind::kCounter:
        out << sample.count;
        break;
      case MetricKind::kGauge:
        out << util::FormatDouble(sample.value);
        break;
      case MetricKind::kHistogram:
        out << "{\"count\":" << sample.count << ",\"mean\":"
            << util::FormatDouble(sample.mean)
            << ",\"p50\":" << util::FormatDouble(sample.p50)
            << ",\"p95\":" << util::FormatDouble(sample.p95)
            << ",\"p99\":" << util::FormatDouble(sample.p99)
            << ",\"p999\":" << util::FormatDouble(sample.p999) << '}';
        break;
    }
  }
  out << '}';
}

void MetricRegistry::WriteJson(std::ostream& out) const {
  WriteSnapshotJson(out, Snapshot());
}

}  // namespace alc::telemetry
