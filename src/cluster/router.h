#ifndef ALC_CLUSTER_ROUTER_H_
#define ALC_CLUSTER_ROUTER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "db/types.h"
#include "placement/catalog.h"
#include "sim/random.h"

namespace alc::cluster {

/// What a routing policy can observe about one node at decision time: the
/// admitted load n, the depth of the admission-gate queue in front of it,
/// and the gate's current threshold n*. Policies never see node internals —
/// mirroring a front-end that only knows queue depths it reported itself.
struct NodeView {
  int active = 0;      // admitted transactions (the paper's load n)
  int gate_queue = 0;  // admission queue depth
  double limit = 0.0;  // gate threshold n*
};

/// Occupancy a front-end attributes to a node: everything it has sent there
/// that has not finished (queued at the gate plus admitted).
inline int Occupancy(const NodeView& view) {
  return view.active + view.gate_queue;
}

/// The routable cluster at one decision instant: per-node observable state
/// (indexed by fleet slot — slots are stable across the run, so a node
/// keeps its identity through failures), the sorted list of live slots,
/// and the membership epoch. The epoch increments on every lifecycle
/// transition (crash, drain, rejoin), so a policy caching per-fleet state
/// can detect membership change in O(1). `live` is non-empty whenever a
/// policy is asked to route; down and draining nodes never appear in it.
///
/// Publish contract: inside a Cluster, `nodes` points at the front end's
/// published view array, not at a per-decision copy. Each node rewrites
/// its own slot right after its admitted count, gate queue or gate
/// threshold changes (ClusterNode::PublishTo), so `view(s)` always equals
/// the node's current state and routing costs nothing per node it does not
/// read. The flip side: the values move as the simulation runs, so a
/// policy must read them during Route and not keep references for later.
struct MembershipView {
  const std::vector<NodeView>* nodes = nullptr;
  const std::vector<int>* live = nullptr;  // sorted fleet slots
  uint64_t epoch = 0;

  int fleet_size() const {
    return nodes == nullptr ? 0 : static_cast<int>(nodes->size());
  }
  int num_live() const {
    return live == nullptr ? 0 : static_cast<int>(live->size());
  }
  const NodeView& view(int slot) const { return (*nodes)[slot]; }
  bool IsLive(int slot) const {
    return live != nullptr &&
           std::binary_search(live->begin(), live->end(), slot);
  }
};

/// Owning all-live wrapper: presents a borrowed view vector as a full
/// membership (every slot live, given epoch). The convenience constructor
/// for policy unit tests and membership-less callers; `views` must outlive
/// the wrapper.
class AllLiveMembership {
 public:
  explicit AllLiveMembership(const std::vector<NodeView>& views,
                             uint64_t epoch = 0) {
    live_.reserve(views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      live_.push_back(static_cast<int>(i));
    }
    view_.nodes = &views;
    view_.live = &live_;
    view_.epoch = epoch;
  }

  // view_.live points into this instance; a compiler-generated copy or
  // move would leave the copy referencing the source's storage.
  AllLiveMembership(const AllLiveMembership&) = delete;
  AllLiveMembership& operator=(const AllLiveMembership&) = delete;

  const MembershipView& view() const { return view_; }

 private:
  std::vector<int> live_;
  MembershipView view_;
};

/// Data-placement context of one routing decision: the keys the arriving
/// transaction will touch and the catalog mapping keys to replica-holding
/// nodes. Both null in placement-free clusters (every node holds all data).
struct RouteContext {
  const std::vector<db::ItemId>* keys = nullptr;
  const placement::PlacementCatalog* catalog = nullptr;
  /// Optional: PartitionOf(keys[i]) precomputed by the caller (the cluster
  /// front-end already maps keys for heat accounting); policies use it to
  /// avoid re-mapping on the per-arrival hot path. Must parallel `keys`.
  const std::vector<int>* partitions = nullptr;
  /// True when this decision re-routes retracted work (displacement after a
  /// crash, drain, or degradation shed). Retracted transactions already
  /// waited in a queue once; load-aware policies use the flag to prefer
  /// nodes with gate *headroom* (n* minus occupancy) — somewhere the work
  /// will actually be admitted — over plain shortest-queue.
  bool is_retraction = false;

  bool has_placement() const {
    return keys != nullptr && catalog != nullptr && !keys->empty();
  }
};

/// A routing policy maps the observable cluster state to a live fleet slot
/// for one arriving transaction. Policies are pure deciders: all randomness
/// comes from their own seeded stream, so routing is deterministic per
/// seed. The membership-first contract: `cluster.live` is non-empty, the
/// returned slot must be live, and load-only policies simply ignore
/// `context` (placement-free clusters pass an empty one).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Picks the target slot for one arrival among `cluster.live`.
  virtual int Route(const MembershipView& cluster,
                    const RouteContext& context) = 0;

  virtual std::string_view name() const = 0;
};

/// Least-occupied live slot; ties go to the lowest slot.
int LeastOccupied(const MembershipView& cluster);

/// Fills `out` with the eligible candidate set for a keyed arrival: the
/// replica holders of the most-touched partition, filtered to live fleet
/// slots (a catalog can name nodes that are down or beyond the fleet —
/// routing to them would target a dead or nonexistent node). When the
/// filtered set is empty or the context carries no placement, falls back
/// to the live fleet and, for the degenerate-catalog case, warns once per
/// `warned_once` flag. Returns the most-touched partition, or -1 without
/// placement. `out` is never left empty.
int EligibleCandidates(const MembershipView& cluster,
                       const RouteContext& context, std::vector<int>* out,
                       bool* warned_once);

/// Cycles through the live nodes in order, blind to load. The classic
/// baseline: perfect under homogeneous nodes and smooth arrivals, poor when
/// one node degrades.
class RoundRobinPolicy : public RoutingPolicy {
 public:
  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "round-robin"; }

 private:
  size_t next_ = 0;
};

/// Uniform random live-node choice, blind to load.
class RandomPolicy : public RoutingPolicy {
 public:
  explicit RandomPolicy(uint64_t seed) : rng_(seed) {}

  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "random"; }

 private:
  sim::RandomStream rng_;
};

/// Join-the-shortest-queue over front-end occupancy (gate queue + admitted
/// load) of the live set. Ties are broken by a rotating preference so no
/// node is systematically favored; the rotation keeps the decision
/// deterministic.
class JoinShortestQueuePolicy : public RoutingPolicy {
 public:
  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "join-shortest-queue"; }

 private:
  size_t rotate_ = 0;
};

/// Threshold-based dispatching with a self-learning threshold, after
/// Goldsztajn et al. ("Self-Learning Threshold-Based Load Balancing"): send
/// an arrival to any live node whose occupancy is below the threshold ell
/// (rotating among candidates); when no node qualifies the dispatcher is
/// learning that the system needs more headroom, so it raises ell and sends
/// the arrival to the least-occupied node. When every node sits strictly
/// below ell - 1 the threshold has overshot and decays by one. The threshold
/// thus tracks the per-node occupancy the current load level actually
/// requires, with O(1) state at the dispatcher — and because it is defined
/// over the *live* server set, it re-learns automatically when the fleet
/// shrinks or grows.
class ThresholdPolicy : public RoutingPolicy {
 public:
  struct Config {
    double initial_threshold = 4.0;
    double min_threshold = 1.0;
    double max_threshold = 1e9;
  };

  explicit ThresholdPolicy(const Config& config);

  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "threshold"; }

  double threshold() const { return threshold_; }

 private:
  Config config_;
  double threshold_;
  size_t rotate_ = 0;
};

/// Power-of-d-choices (Mitzenmacher): sample d nodes uniformly from the
/// eligible candidate set (live replica holders under placement, the live
/// fleet without), route to the least occupied of the sample. O(d) per
/// decision with most of JSQ's balancing power — the scalable middle ground
/// between Random (d=1) and full JSQ (d=N).
class PowerOfDPolicy : public RoutingPolicy {
 public:
  struct Config {
    int d = 2;
  };

  PowerOfDPolicy(const Config& config, uint64_t seed);

  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "power-of-d"; }

 private:
  int RouteAmong(const MembershipView& cluster);

  Config config_;
  sim::RandomStream rng_;
  std::vector<int> candidates_;
  bool warned_empty_ = false;
};

/// Locality routing: send the transaction to the home node of its
/// most-touched partition, so the plurality of its accesses are local.
/// When several candidate home nodes tie (equally touched partitions),
/// the least-occupied one wins. Deliberately load-blind otherwise — the
/// home node is chosen even if it is saturated, which is exactly the
/// failure mode kLocalityThreshold repairs. Homes that are down or outside
/// the fleet fall through to lower touch tiers.
class LocalityPolicy : public RoutingPolicy {
 public:
  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "locality"; }

 private:
  std::vector<std::pair<int, int>> touches_;
  bool warned_empty_ = false;
};

/// Locality with an overload escape hatch: route to the home node of the
/// most-touched partition unless that node's front-end occupancy exceeds
/// its admission threshold n* — then route to the cheapest (least-occupied)
/// live replica of that partition instead. Couples Heiss & Wagner's
/// per-node adaptive gate to the placement decision: the gate's self-tuned
/// n* tells the router when locality has stopped paying.
class LocalityThresholdPolicy : public RoutingPolicy {
 public:
  int Route(const MembershipView& cluster, const RouteContext& context) override;
  std::string_view name() const override { return "locality-threshold"; }

 private:
  std::vector<std::pair<int, int>> touches_;
  std::vector<int> candidates_;
  bool warned_empty_ = false;
};

}  // namespace alc::cluster

#endif  // ALC_CLUSTER_ROUTER_H_
