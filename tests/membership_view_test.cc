// Differential test of the cluster's published membership view: every
// node writes its own NodeView slot when its admitted count, gate queue or
// gate threshold changes, and routing reads those slots instead of
// rebuilding a fleet snapshot per decision. Here a routing policy wraps
// the spec's real one and, at every Route call, checks each published slot
// against the node's freshly computed ClusterNode::View() before
// delegating. The specs cover crash kills and retraction
// (node_failover), slow-start ramp caps and drains (elasticity_flash),
// frozen gates, retry and degradation (fault_storm), and displacement
// aborts (fault_storm with displacement on). A missed publish anywhere on
// those paths shows up as a mismatch at the next routing decision.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/registry.h"
#include "core/spec.h"
#include "workload/registry.h"

namespace alc {
namespace {

constexpr char kOracleRouting[] = "test.view-oracle";
constexpr char kCaptureSource[] = "test.capture-open";

/// What the oracle saw over one run.
struct OracleStats {
  uint64_t routes = 0;
  uint64_t retraction_routes = 0;
  uint64_t mismatches = 0;
  uint64_t frozen_routes = 0;   // decisions taken while some gate was frozen
  uint64_t ramping_routes = 0;  // ... while some gate had a ramp cap
  uint64_t displaced = 0;       // gate displacements seen by the last route
  std::string first_mismatch;
};

// The run under test: its cluster (captured by the source wrapper when the
// cluster starts it), the routing policy the oracle wraps, and the stats.
// Specs run one at a time on this thread.
const cluster::Cluster* g_cluster = nullptr;
std::string g_inner_routing;
OracleStats g_stats;

bool SameView(const cluster::NodeView& a, const cluster::NodeView& b) {
  return a.active == b.active && a.gate_queue == b.gate_queue &&
         a.limit == b.limit;
}

std::string Describe(const cluster::NodeView& view) {
  return "{active=" + std::to_string(view.active) +
         " gate_queue=" + std::to_string(view.gate_queue) +
         " limit=" + std::to_string(view.limit) + "}";
}

class ViewOraclePolicy : public cluster::RoutingPolicy {
 public:
  explicit ViewOraclePolicy(std::unique_ptr<cluster::RoutingPolicy> inner)
      : inner_(std::move(inner)) {}

  int Route(const cluster::MembershipView& membership,
            const cluster::RouteContext& context) override {
    const cluster::Cluster& fleet = *g_cluster;
    ++g_stats.routes;
    if (context.is_retraction) ++g_stats.retraction_routes;
    bool frozen = false;
    bool ramping = false;
    uint64_t displaced = 0;
    EXPECT_EQ(membership.fleet_size(), fleet.size());
    for (int slot = 0; slot < fleet.size(); ++slot) {
      const cluster::ClusterNode& node = fleet.node(slot);
      frozen = frozen || node.gate().frozen();
      ramping = ramping || node.gate().ramping();
      displaced += node.gate().total_displaced();
      const cluster::NodeView expected = node.View();
      if (!SameView(membership.view(slot), expected)) {
        if (g_stats.mismatches == 0) {
          g_stats.first_mismatch =
              "route " + std::to_string(g_stats.routes) + " slot " +
              std::to_string(slot) + ": published " +
              Describe(membership.view(slot)) + ", node " +
              Describe(expected);
        }
        ++g_stats.mismatches;
      }
    }
    if (frozen) ++g_stats.frozen_routes;
    if (ramping) ++g_stats.ramping_routes;
    g_stats.displaced = displaced;
    return inner_->Route(membership, context);
  }

  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cluster::RoutingPolicy> inner_;
};

/// The default open source, passed through unchanged except that it notes
/// which cluster started it.
class CapturingSource : public workload::WorkloadSource {
 public:
  explicit CapturingSource(std::unique_ptr<workload::WorkloadSource> inner)
      : inner_(std::move(inner)) {}

  void Start(sim::Simulator* sim, workload::WorkloadHost* host) override {
    g_cluster = dynamic_cast<const cluster::Cluster*>(host);
    ASSERT_NE(g_cluster, nullptr);
    inner_->Start(sim, host);
  }
  void OnComplete(int32_t session, double response, bool ok) override {
    inner_->OnComplete(session, response, ok);
  }
  void RegisterMetrics(telemetry::MetricRegistry* registry,
                       const std::string& prefix) override {
    inner_->RegisterMetrics(registry, prefix);
  }
  void SetTraceRecorder(telemetry::TraceRecorder* trace) override {
    inner_->SetTraceRecorder(trace);
  }

 private:
  std::unique_ptr<workload::WorkloadSource> inner_;
};

void RegisterOnce() {
  static const bool registered = [] {
    cluster::RoutingPolicyRegistry::Global().Register(
        kOracleRouting, [](const cluster::RoutingPolicyContext& context) {
          // Same params and seed as the spec's own policy would get, so the
          // wrapped run routes exactly like the plain one.
          return std::make_unique<ViewOraclePolicy>(
              cluster::RoutingPolicyRegistry::Global().Make(g_inner_routing,
                                                            context));
        });
    workload::WorkloadRegistry::Global().Register(
        kCaptureSource, [](const workload::WorkloadSourceContext& context) {
          return std::make_unique<CapturingSource>(
              workload::WorkloadRegistry::Global().Make("open", context));
        });
    return true;
  }();
  (void)registered;
}

core::ExperimentSpec LoadSpec(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& overrides = {}) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/" + name + ".spec", &spec, &error))
      << error;
  for (const auto& [key, value] : overrides) {
    EXPECT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
  }
  EXPECT_TRUE(core::ValidateSpec(spec, &error)) << error;
  return spec;
}

/// Runs `spec` with the oracle wrapped around its routing policy and
/// returns what the oracle saw. Also checks that wrapping changed nothing:
/// the oracle run commits exactly what the plain run commits.
OracleStats RunWithOracle(core::ExperimentSpec spec) {
  RegisterOnce();
  EXPECT_TRUE(spec.cluster);
  EXPECT_EQ(spec.workload.source, "open");
  const uint64_t plain_commits = core::RunSpec(spec).commits();

  g_inner_routing = spec.routing;
  g_stats = OracleStats{};
  g_cluster = nullptr;
  spec.routing = kOracleRouting;
  spec.workload.source = kCaptureSource;
  const uint64_t oracle_commits = core::RunSpec(spec).commits();
  g_cluster = nullptr;

  EXPECT_EQ(oracle_commits, plain_commits);
  EXPECT_GT(g_stats.routes, 0u);
  EXPECT_EQ(g_stats.mismatches, 0u) << g_stats.first_mismatch;
  return g_stats;
}

TEST(MembershipViewTest, NodeFailoverCrashAndRetraction) {
  const OracleStats stats = RunWithOracle(LoadSpec("node_failover"));
  EXPECT_GT(stats.retraction_routes, 0u);
}

TEST(MembershipViewTest, ElasticityRampCapsAndDrains) {
  const OracleStats stats = RunWithOracle(LoadSpec("elasticity_flash"));
  EXPECT_GT(stats.ramping_routes, 0u);
  EXPECT_GT(stats.frozen_routes, 0u);
}

TEST(MembershipViewTest, FaultStormFrozenGatesRetryAndRetraction) {
  const OracleStats stats = RunWithOracle(LoadSpec("fault_storm"));
  EXPECT_GT(stats.frozen_routes, 0u);
  EXPECT_GT(stats.retraction_routes, 0u);
}

TEST(MembershipViewTest, FaultStormWithDisplacement) {
  const OracleStats stats = RunWithOracle(
      LoadSpec("fault_storm", {{"node.control.displacement", "true"}}));
  EXPECT_GT(stats.displaced, 0u);
}

}  // namespace
}  // namespace alc
