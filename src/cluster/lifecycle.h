#ifndef ALC_CLUSTER_LIFECYCLE_H_
#define ALC_CLUSTER_LIFECYCLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alc::cluster {

/// Availability of one cluster node at a point in time. Lifecycle semantics
/// (what the data plane does on each transition) live in cluster::Cluster;
/// this header only carries the schedule vocabulary.
///
///   kUp      — member of the routing set, executes work normally.
///   kDrain   — removed from the routing set; no new work is routed to it,
///              but everything already queued or admitted finishes.
///   kDown    — crashed: in-flight work is lost, the gate queue is either
///              retracted and re-routed (front-end displacement) or dropped.
///   kStandby — provisionable but not provisioned: outside the routing set,
///              holding no work, waiting for the elasticity autoscaler to
///              bring it up. Unlike kDown, entering standby loses nothing
///              (queued work is retracted first).
enum class NodeState { kUp, kDrain, kDown, kStandby };

const char* NodeStateName(NodeState state);
bool ParseNodeState(std::string_view text, NodeState* out);

/// What a node remembers when it rejoins the routing set after a crash:
/// kFresh resets the admission gate to its initial limit and rebuilds the
/// controller from scratch (the node re-learns its operating point);
/// kRetained keeps the gate threshold and controller state learned before
/// the crash (warm restart from a checkpointed control plane).
enum class RejoinPolicy { kFresh, kRetained };

/// A node's piecewise-constant availability over time: an initial state
/// plus (time, state) transitions at strictly increasing positive times.
/// The default-constructed schedule is "always up", which is what every
/// node without an explicit `availability` key gets — lifecycle machinery
/// stays completely out of the event stream for such nodes.
///
/// Canonical text literal, exact under Parse:
///
///   avail(up)                        always up (any single state is legal)
///   avail(up; 60:down, 90:up)        initial; time:state, ...
///
/// The spec-file parser uses this literal for `availability` keys and for
/// named `[schedules]` entries referenced as `$name`.
class AvailabilitySchedule {
 public:
  /// Always up.
  AvailabilitySchedule() = default;

  /// Builds a validated schedule. Returns false (leaving `out` untouched)
  /// when transition times are not strictly increasing and positive;
  /// `error` (optional) then names the offending segment.
  static bool Make(NodeState initial,
                   std::vector<std::pair<double, NodeState>> transitions,
                   AvailabilitySchedule* out, std::string* error = nullptr);

  NodeState initial_state() const { return initial_; }
  const std::vector<std::pair<double, NodeState>>& transitions() const {
    return transitions_;
  }

  /// State in effect at time `t` (transitions take effect at their time).
  NodeState StateAt(double t) const;

  /// True for the default schedule: up at t = 0 and no transitions. The
  /// cluster skips all lifecycle bookkeeping for such nodes.
  bool always_up() const {
    return initial_ == NodeState::kUp && transitions_.empty();
  }

  std::string ToString() const;

  /// Parses a ToString literal (whitespace-tolerant). On failure returns
  /// false, leaves `out` untouched, and sets `error` (optional) to a
  /// message naming the problem (unknown state name, unsorted times, ...).
  static bool Parse(std::string_view text, AvailabilitySchedule* out,
                    std::string* error = nullptr);

  bool operator==(const AvailabilitySchedule& other) const {
    return initial_ == other.initial_ && transitions_ == other.transitions_;
  }
  bool operator!=(const AvailabilitySchedule& other) const {
    return !(*this == other);
  }

 private:
  NodeState initial_ = NodeState::kUp;
  std::vector<std::pair<double, NodeState>> transitions_;
};

}  // namespace alc::cluster

#endif  // ALC_CLUSTER_LIFECYCLE_H_
