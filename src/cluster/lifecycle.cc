#include "cluster/lifecycle.h"

#include <utility>

#include "util/params.h"

namespace alc::cluster {

namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kUp:
      return "up";
    case NodeState::kDrain:
      return "drain";
    case NodeState::kDown:
      return "down";
    case NodeState::kStandby:
      return "standby";
  }
  return "?";
}

bool ParseNodeState(std::string_view text, NodeState* out) {
  if (text == "up") {
    *out = NodeState::kUp;
  } else if (text == "drain") {
    *out = NodeState::kDrain;
  } else if (text == "down") {
    *out = NodeState::kDown;
  } else if (text == "standby") {
    *out = NodeState::kStandby;
  } else {
    return false;
  }
  return true;
}

bool AvailabilitySchedule::Make(
    NodeState initial, std::vector<std::pair<double, NodeState>> transitions,
    AvailabilitySchedule* out, std::string* error) {
  double previous = 0.0;
  for (size_t i = 0; i < transitions.size(); ++i) {
    const double time = transitions[i].first;
    if (time <= 0.0) {
      SetError(error, "availability transition times must be positive (got " +
                          util::FormatDouble(time) +
                          "); fold a t=0 state into the initial segment");
      return false;
    }
    if (i > 0 && time <= previous) {
      SetError(error,
               "availability transitions must be sorted by strictly "
               "increasing time (segment at t=" +
                   util::FormatDouble(time) + " follows t=" +
                   util::FormatDouble(previous) + ")");
      return false;
    }
    previous = time;
  }
  out->initial_ = initial;
  out->transitions_ = std::move(transitions);
  return true;
}

NodeState AvailabilitySchedule::StateAt(double t) const {
  NodeState state = initial_;
  for (const auto& [time, next] : transitions_) {
    if (t >= time) {
      state = next;
    } else {
      break;
    }
  }
  return state;
}

std::string AvailabilitySchedule::ToString() const {
  std::string out = "avail(";
  out += NodeStateName(initial_);
  if (!transitions_.empty()) {
    out += "; ";
    for (size_t i = 0; i < transitions_.size(); ++i) {
      if (i > 0) out += ", ";
      out += util::FormatDouble(transitions_[i].first);
      out += ":";
      out += NodeStateName(transitions_[i].second);
    }
  }
  out += ")";
  return out;
}

bool AvailabilitySchedule::Parse(std::string_view text,
                                 AvailabilitySchedule* out,
                                 std::string* error) {
  const std::string trimmed = util::TrimWhitespace(text);
  if (trimmed.size() < 7 || trimmed.compare(0, 6, "avail(") != 0 ||
      trimmed.back() != ')') {
    SetError(error, "malformed availability literal '" + trimmed +
                        "' (expected avail(<state>[; t:<state>, ...]))");
    return false;
  }
  const std::string args = trimmed.substr(6, trimmed.size() - 7);
  const size_t semi = args.find(';');
  const std::string initial_text =
      util::TrimWhitespace(semi == std::string::npos ? args
                                                     : args.substr(0, semi));
  NodeState initial;
  if (!ParseNodeState(initial_text, &initial)) {
    SetError(error, "unknown availability state '" + initial_text +
                        "' (expected up/drain/down/standby)");
    return false;
  }
  std::vector<std::pair<double, NodeState>> transitions;
  if (semi != std::string::npos) {
    for (const std::string& piece :
         util::SplitTrimmed(args.substr(semi + 1), ',')) {
      const size_t colon = piece.find(':');
      if (colon == std::string::npos) {
        SetError(error, "malformed availability segment '" + piece +
                            "' (expected time:state)");
        return false;
      }
      double time = 0.0;
      if (!util::ParseDouble(util::TrimWhitespace(piece.substr(0, colon)),
                             &time)) {
        SetError(error, "malformed availability segment time in '" + piece +
                            "'");
        return false;
      }
      NodeState state;
      const std::string state_text =
          util::TrimWhitespace(piece.substr(colon + 1));
      if (!ParseNodeState(state_text, &state)) {
        SetError(error, "unknown availability state '" + state_text +
                            "' (expected up/drain/down/standby)");
        return false;
      }
      transitions.emplace_back(time, state);
    }
  }
  return Make(initial, std::move(transitions), out, error);
}

}  // namespace alc::cluster
