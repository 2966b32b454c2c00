// Controller and routing-policy registries: built-in coverage, the
// deprecated enums' alias names, unknown-name and duplicate-registration
// errors, param serialization round trips, and external registration
// running through the standard ExperimentSpec path with no core edits.
// Every family is one util::Registry, so the unknown-name error is checked
// once per family here.

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "control/fixed.h"
#include "control/registry.h"
#include "core/cluster_experiment.h"
#include "core/spec.h"
#include "elasticity/autoscaler.h"
#include "fault/fault.h"
#include "workload/registry.h"

namespace alc {
namespace {

// ------------------------------------------------------------ controllers --

TEST(ControllerRegistryTest, BuiltinsAreRegistered) {
  auto& registry = control::ControllerRegistry::Global();
  for (const char* name :
       {"none", "fixed", "tay-rule", "iyer-rule", "incremental-steps",
        "parabola-approximation", "golden-section"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
}

TEST(ControllerRegistryTest, BuiltInNamesReachTheExpectedFactories) {
  // Selecting each built-in by name must reach a controller that reports
  // the same name back.
  for (const char* name :
       {"none", "fixed", "tay-rule", "iyer-rule", "incremental-steps",
        "parabola-approximation", "golden-section"}) {
    EXPECT_TRUE(control::ControllerRegistry::Global().Contains(name)) << name;
    core::NodeSpec node;
    node.control.controller = name;
    std::unique_ptr<control::LoadController> controller =
        core::MakeController(node);
    ASSERT_NE(controller, nullptr);
    EXPECT_EQ(controller->name(), std::string_view(name));
  }
}

TEST(ControllerRegistryTest, UnknownNameReportsRegisteredNames) {
  util::ParamMap params;
  control::ControllerContext context;
  context.params = &params;
  std::string error;
  EXPECT_EQ(control::ControllerRegistry::Global().Make("warp-drive", context,
                                                       &error),
            nullptr);
  EXPECT_NE(error.find("warp-drive"), std::string::npos) << error;
  EXPECT_NE(error.find("parabola-approximation"), std::string::npos) << error;
}

TEST(ControllerRegistryTest, DuplicateRegistrationIsRejected) {
  auto& registry = control::ControllerRegistry::Global();
  EXPECT_FALSE(registry.Register("fixed", [](const control::ControllerContext&)
                                     -> std::unique_ptr<control::LoadController> {
    return std::make_unique<control::NoControlController>();
  }));
  // The original factory survives: "fixed" still builds a fixed limiter.
  util::ParamMap params;
  params.SetDouble("fixed.limit", 33.0);
  control::ControllerContext context;
  context.params = &params;
  std::unique_ptr<control::LoadController> controller =
      registry.Make("fixed", context);
  ASSERT_NE(controller, nullptr);
  EXPECT_EQ(controller->bound(), 33.0);
}

TEST(ControllerRegistryTest, ParamsRoundTripTypedConfigs) {
  control::PaConfig pa;
  pa.forgetting = 0.91;
  pa.dither = 4.5;
  pa.recovery = control::PaRecoveryPolicy::kContract;
  pa.index = control::PerformanceIndex::kInverseResponseTime;
  util::ParamMap params;
  control::AppendPaParams(pa, &params);
  const control::PaConfig back = control::PaFromParams(params);
  EXPECT_EQ(back.forgetting, pa.forgetting);
  EXPECT_EQ(back.dither, pa.dither);
  EXPECT_EQ(back.recovery, pa.recovery);
  EXPECT_EQ(back.index, pa.index);

  control::IsConfig is;
  is.beta = 1.5;
  is.max_bound = 444.0;
  util::ParamMap is_params;
  control::AppendIsParams(is, &is_params);
  const control::IsConfig is_back = control::IsFromParams(is_params);
  EXPECT_EQ(is_back.beta, is.beta);
  EXPECT_EQ(is_back.max_bound, is.max_bound);
}

/// The example-controller scenario: a policy registered outside src/ (here,
/// in a test binary) driven through the standard spec path.
class HalvingController : public control::LoadController {
 public:
  explicit HalvingController(double initial) : bound_(initial) {}
  double Update(const control::Sample&) override {
    bound_ = std::max(5.0, bound_ * 0.5);
    return bound_;
  }
  void Reset(double initial_bound) override { bound_ = initial_bound; }
  double bound() const override { return bound_; }
  std::string_view name() const override { return "test-halving"; }

 private:
  double bound_;
};

TEST(ControllerRegistryTest, ExternalControllerRunsThroughSpecPath) {
  control::ControllerRegistry::Global().Register(
      "test-halving", [](const control::ControllerContext& context) {
        return std::make_unique<HalvingController>(
            context.params->GetDouble("halving.initial", 100.0));
      });

  core::ExperimentSpec spec;
  spec.duration = 10.0;
  spec.warmup = 2.0;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.seed = 3;
  node.control.controller = "test-halving";
  node.control.params.SetDouble("halving.initial", 64.0);

  // Through the text form too: registration is all it takes for the name
  // to work in a spec file.
  core::ExperimentSpec reparsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  const core::SpecRunResult result = core::RunSpec(reparsed);
  ASSERT_FALSE(result.cluster);
  ASSERT_FALSE(result.single.trajectory.empty());
  // The halving policy collapses the bound toward its floor.
  EXPECT_EQ(result.single.trajectory.back().bound, 5.0);
}

// ----------------------------------------------------------- every family --

template <typename Registry>
std::string UnknownNameError(const Registry& registry) {
  std::string error;
  EXPECT_FALSE(registry.Check("warp-drive", &error));
  return error;
}

TEST(RegistryTest, UnknownNameErrorNamesTheFamilyAndListsItsNames) {
  // The registered names are listed in sorted order after the family noun.
  EXPECT_EQ(UnknownNameError(control::ControllerRegistry::Global())
                .rfind("unknown controller 'warp-drive'; registered: fixed "
                       "golden-section incremental-steps iyer-rule none",
                       0),
            0u);
  EXPECT_EQ(UnknownNameError(cluster::RoutingPolicyRegistry::Global())
                .rfind("unknown routing policy 'warp-drive'; registered: "
                       "join-shortest-queue",
                       0),
            0u);
  EXPECT_EQ(UnknownNameError(workload::WorkloadRegistry::Global()),
            "unknown workload source 'warp-drive'; registered: closed "
            "hybrid open");
  EXPECT_EQ(UnknownNameError(elasticity::AutoscalerRegistry::Global()),
            "unknown autoscaler 'warp-drive'; registered: hysteresis none pi");
  EXPECT_EQ(UnknownNameError(fault::FaultRegistry::Global())
                .rfind("unknown fault kind 'warp-drive'; registered: "
                       "cpu-degrade crash-burst disk-stall",
                       0),
            0u);
  // A registered name passes, and a null error is allowed.
  EXPECT_TRUE(control::ControllerRegistry::Global().Check("fixed", nullptr));
  EXPECT_FALSE(
      control::ControllerRegistry::Global().Check("warp-drive", nullptr));
}

TEST(RegistryTest, MakeCheckedBuildsOrAbortsListingTheNames) {
  control::ControllerContext context;
  util::ParamMap params;
  context.params = &params;
  EXPECT_EQ(control::ControllerRegistry::Global()
                .MakeChecked("none", context)
                ->name(),
            "none");
  EXPECT_DEATH(
      control::ControllerRegistry::Global().MakeChecked("warp-drive",
                                                        context),
      "unknown controller 'warp-drive'; registered: fixed");
}

// --------------------------------------------------------- routing policies --

TEST(RoutingRegistryTest, BuiltinsAreRegisteredUnderTheirNames) {
  auto& registry = cluster::RoutingPolicyRegistry::Global();
  for (const char* name :
       {"round-robin", "random", "join-shortest-queue", "threshold",
        "power-of-d", "locality", "locality-threshold"}) {
    ASSERT_TRUE(registry.Contains(name)) << name;
    util::ParamMap params;
    cluster::RoutingPolicyContext context;
    context.params = &params;
    context.seed = 1;
    std::unique_ptr<cluster::RoutingPolicy> policy =
        registry.Make(name, context);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), std::string_view(name));
  }
}

TEST(RoutingRegistryTest, UnknownNameAndDuplicateRegistration) {
  auto& registry = cluster::RoutingPolicyRegistry::Global();
  util::ParamMap params;
  cluster::RoutingPolicyContext context;
  context.params = &params;
  std::string error;
  EXPECT_EQ(registry.Make("teleport", context, &error), nullptr);
  EXPECT_NE(error.find("teleport"), std::string::npos) << error;
  EXPECT_NE(error.find("join-shortest-queue"), std::string::npos) << error;

  EXPECT_FALSE(registry.Register(
      "random", [](const cluster::RoutingPolicyContext&)
                    -> std::unique_ptr<cluster::RoutingPolicy> {
        return std::make_unique<cluster::RoundRobinPolicy>();
      }));
}

TEST(RoutingRegistryTest, ThresholdParamsReachThePolicy) {
  util::ParamMap params;
  params.SetDouble("threshold.initial_threshold", 11.0);
  cluster::RoutingPolicyContext context;
  context.params = &params;
  std::unique_ptr<cluster::RoutingPolicy> policy =
      cluster::RoutingPolicyRegistry::Global().Make("threshold", context);
  ASSERT_NE(policy, nullptr);
  auto* threshold = static_cast<cluster::ThresholdPolicy*>(policy.get());
  EXPECT_EQ(threshold->threshold(), 11.0);
}

/// A placement-blind external policy: everything goes to the first live
/// node.
class PinToZeroPolicy : public cluster::RoutingPolicy {
 public:
  int Route(const cluster::MembershipView& cluster,
            const cluster::RouteContext&) override {
    return cluster.live->front();
  }
  std::string_view name() const override { return "pin-to-zero"; }
};

TEST(RoutingRegistryTest, ExternalPolicyRunsThroughSpecPath) {
  cluster::RoutingPolicyRegistry::Global().Register(
      "pin-to-zero", [](const cluster::RoutingPolicyContext&) {
        return std::make_unique<PinToZeroPolicy>();
      });

  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.seed = 11;
  spec.duration = 8.0;
  spec.warmup = 2.0;
  spec.routing = "pin-to-zero";
  spec.arrival_rate = db::Schedule::Constant(60.0);
  spec.nodes.resize(2);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    spec.nodes[i].system.seed = 50 + i;
    spec.nodes[i].system.physical.num_cpus = 4;
    spec.nodes[i].control.controller = "none";
    spec.nodes[i].control.measurement_interval = 0.5;
  }

  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);
  EXPECT_GT(result.cluster_result.nodes[0].routed, 0u);
  EXPECT_EQ(result.cluster_result.nodes[1].routed, 0u);
}

}  // namespace
}  // namespace alc
