// Differential test of the event engine's contract against a reference
// model: a std::set of (time, scheduling sequence) pairs, popped from the
// front. Whatever data structure orders the queue, every fire must be the
// model's minimum — earliest time first, scheduling order among equal
// times — and cancellation, peeking and RunUntil boundaries must agree
// with the model step by step. The traffic mirrors what the simulator
// generates (hold-model terminals with ms-scale service and s-scale think
// times, constant-delay disk streams through FIFO lanes with a stall
// window whose closing edge drops the delay mid-stream, equal-time bursts
// of monitor ticks across 64 nodes, restart timers that get cancelled)
// plus the raw-queue
// freedoms the simulator never uses (pushes below the last popped time,
// cancelling the head right after peeking it).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace alc::sim {
namespace {

using Key = std::pair<double, uint64_t>;  // (time, scheduling sequence)

/// Reference model shared by both tests: pending events ordered by key,
/// plus each live event's time for cancellation.
class Model {
 public:
  uint64_t Push(double time) {
    const uint64_t seq = ++next_seq_;
    pending_.emplace(time, seq);
    times_[seq] = time;
    return seq;
  }
  bool Cancel(uint64_t seq) {
    const auto it = times_.find(seq);
    if (it == times_.end()) return false;
    pending_.erase(Key{it->second, seq});
    times_.erase(it);
    return true;
  }
  Key Min() const { return *pending_.begin(); }
  Key PopMin() {
    const Key head = Min();
    pending_.erase(pending_.begin());
    times_.erase(head.second);
    return head;
  }
  bool live(uint64_t seq) const { return times_.count(seq) > 0; }
  bool empty() const { return pending_.empty(); }
  size_t size() const { return pending_.size(); }

 private:
  std::set<Key> pending_;
  std::map<uint64_t, double> times_;
  uint64_t next_seq_ = 0;
};

/// Times that straddle powers of two: 2^k itself and its neighbours on
/// either side, where the exponent bits of the double change.
double PowerOfTwoNeighbour(RandomStream* rng) {
  const double power = std::ldexp(1.0, static_cast<int>(rng->NextUint64(8)));
  switch (rng->NextUint64(3)) {
    case 0:
      return std::nextafter(power, 0.0);
    case 1:
      return power;
    default:
      return std::nextafter(power, std::numeric_limits<double>::infinity());
  }
}

TEST(EventEngineModelTest, RawQueueMatchesModelUnderArbitraryPushes) {
  // The raw queue accepts any time >= 0, including times below the last
  // one popped. Mixes monotone hold traffic with backwards pushes, t = 0,
  // power-of-two neighbours, equal-time bursts of 64 and cancels of the
  // just-peeked head.
  RandomStream rng(2024);
  EventQueue queue;
  Model model;
  std::map<uint64_t, EventHandle> handles;  // live events only
  std::vector<uint64_t> fired;
  double now = 0.0;

  const auto push = [&](double time) {
    const uint64_t seq = model.Push(time);
    handles[seq] =
        queue.Push(time, [&fired, seq] { fired.push_back(seq); });
  };
  const auto cancel = [&](uint64_t seq) {
    const EventHandle handle = handles.at(seq);
    handles.erase(seq);
    ASSERT_TRUE(model.Cancel(seq));
    ASSERT_TRUE(queue.Cancel(handle));
    ASSERT_FALSE(queue.Cancel(handle));
  };

  for (int step = 0; step < 60000; ++step) {
    const double p = rng.NextDouble();
    if (p < 0.30) {
      // Hold traffic: ms-scale service or s-scale think time from now.
      push(now + (rng.NextDouble() < 0.8 ? rng.NextExponential(0.005)
                                         : rng.NextExponential(1.0)));
    } else if (p < 0.34) {
      push(now);  // zero delay: after every queued event at `now`
    } else if (p < 0.37) {
      push(rng.NextDouble() * now);  // below the last popped time
    } else if (p < 0.39) {
      push(0.0);
    } else if (p < 0.42) {
      push(PowerOfTwoNeighbour(&rng));
    } else if (p < 0.425) {
      // Equal-time burst: a monitor tick across 64 nodes.
      const double tick = now + rng.NextExponential(0.5);
      for (int node = 0; node < 64; ++node) push(tick);
    } else if (p < 0.50 && !handles.empty()) {
      // Restart-timer cancel of an arbitrary live event.
      auto it = handles.begin();
      std::advance(it, static_cast<long>(rng.NextUint64(
                           std::min<uint64_t>(handles.size(), 64))));
      cancel(it->first);
    } else if (p < 0.53 && !model.empty()) {
      // Peek, then cancel exactly the head that was peeked.
      ASSERT_EQ(queue.PeekTime(), model.Min().first);
      cancel(model.Min().second);
      if (!model.empty()) {
        ASSERT_EQ(queue.PeekTime(), model.Min().first);
      }
    } else if (!model.empty()) {
      ASSERT_EQ(queue.PeekTime(), model.Min().first);
      const Key head = model.PopMin();
      handles.erase(head.second);
      EventQueue::Fired popped = queue.Pop();
      popped.cell();
      ASSERT_EQ(popped.time, head.first);
      ASSERT_EQ(fired.back(), head.second);
      now = head.first;
    }
    ASSERT_EQ(queue.live_count(), model.size());
    ASSERT_EQ(queue.empty(), model.empty());
  }
  while (!model.empty()) {
    const Key head = model.PopMin();
    EventQueue::Fired popped = queue.Pop();
    popped.cell();
    ASSERT_EQ(popped.time, head.first);
    ASSERT_EQ(fired.back(), head.second);
  }
  EXPECT_TRUE(queue.empty());
}

/// Drives a Simulator and the model side by side. Every callback checks
/// that it is the model's minimum, then reacts like the entity it stands
/// for, scheduling through it so both sides see the same pushes.
class Lockstep {
 public:
  enum class Kind {
    kTerminal, kDisk, kDiskIo, kMonitor, kNodeTick, kTimer, kProbe
  };
  static constexpr int kDisks = 4;

  explicit Lockstep(uint64_t seed) : rng_(seed) {
    for (uint32_t& lane : disk_lanes_) lane = sim_.AddLane();
  }

  uint64_t Schedule(double delay, Kind kind) {
    const uint64_t seq = model_.Push(sim_.Now() + delay);
    kinds_[seq] = kind;
    handles_[seq] = sim_.Schedule(delay, [this, seq] { Fire(seq); });
    return seq;
  }
  uint64_t ScheduleAt(double time, Kind kind) {
    const uint64_t seq = model_.Push(time);
    kinds_[seq] = kind;
    handles_[seq] = sim_.ScheduleAt(time, [this, seq] { Fire(seq); });
    return seq;
  }
  /// A disk I/O on disk `disk`'s lane, at the disk's current constant
  /// service time: 0.035 s, stretched to 0.14 s inside the stall window
  /// [10, 20). Pushes right after the window closes land below the lane's
  /// tail and take the plain-entry fallback.
  uint64_t ScheduleDisk(int disk, Kind kind) {
    const double now = sim_.Now();
    const double delay = now >= 10.0 && now < 20.0 ? 0.14 : 0.035;
    const uint64_t seq = model_.Push(now + delay);
    kinds_[seq] = kind;
    disks_[seq] = disk;
    sim_.ScheduleLane(disk_lanes_[disk], delay, [this, seq] { Fire(seq); });
    return seq;
  }
  void Cancel(uint64_t seq) {
    const bool live = model_.live(seq);
    EXPECT_EQ(sim_.Cancel(handles_.at(seq)), live);
    if (live) model_.Cancel(seq);
    EXPECT_FALSE(sim_.Cancel(handles_.at(seq)));
  }

  Simulator& sim() { return sim_; }
  Model& model() { return model_; }
  RandomStream& rng() { return rng_; }
  uint64_t fired() const { return fired_; }

 private:
  void Fire(uint64_t seq) {
    ASSERT_FALSE(model_.empty());
    const Key head = model_.PopMin();
    ASSERT_EQ(head.second, seq) << "fired out of (time, sequence) order";
    ASSERT_EQ(head.first, sim_.Now());
    ++fired_;
    switch (kinds_.at(seq)) {
      case Kind::kTerminal: {
        // Closed-system terminal: mostly ms-scale service steps, then an
        // s-scale think time; some steps arm a restart timer and some
        // cancel the one armed before (an abort that was averted).
        const bool think = rng_.NextDouble() < 0.15;
        Schedule(think ? rng_.NextExponential(1.0)
                       : rng_.NextExponential(0.005),
                 Kind::kTerminal);
        const double roll = rng_.NextDouble();
        if (roll < 0.30) {
          // An access phase's I/O: several in flight per disk lane.
          ScheduleDisk(static_cast<int>(rng_.NextUint64(kDisks)),
                       Kind::kDiskIo);
        }
        if (roll < 0.05) {
          timers_.push_back(
              Schedule(rng_.NextExponential(0.05), Kind::kTimer));
        } else if (roll < 0.10 && !timers_.empty()) {
          const size_t pick = rng_.NextUint64(timers_.size());
          Cancel(timers_[pick]);
          timers_[pick] = timers_.back();
          timers_.pop_back();
        }
        break;
      }
      case Kind::kDisk:
        ScheduleDisk(disks_.at(seq), Kind::kDisk);  // back-to-back I/O
        break;
      case Kind::kMonitor:
        // One tick fans out to every node at the same instant.
        for (int node = 0; node < 64; ++node) Schedule(0.0, Kind::kNodeTick);
        Schedule(1.0, Kind::kMonitor);
        break;
      case Kind::kDiskIo:
      case Kind::kNodeTick:
      case Kind::kTimer:
      case Kind::kProbe:
        break;
    }
  }

  Simulator sim_;
  Model model_;
  RandomStream rng_;
  std::map<uint64_t, EventHandle> handles_;
  std::map<uint64_t, Kind> kinds_;
  std::map<uint64_t, int> disks_;  // disk of each disk event
  uint32_t disk_lanes_[kDisks];
  std::vector<uint64_t> timers_;
  uint64_t fired_ = 0;
};

TEST(EventEngineModelTest, SimulatorMatchesModelOnSimulatorTraffic) {
  Lockstep lockstep(77);
  // Everything starts at t = 0: terminals, four back-to-back disk streams
  // in lockstep (their completions tie exactly, every time), the monitor.
  for (int terminal = 0; terminal < 600; ++terminal) {
    const double delay =
        terminal % 3 == 0 ? 0.0 : lockstep.rng().NextExponential(1.0);
    lockstep.Schedule(delay, Lockstep::Kind::kTerminal);
  }
  for (int disk = 0; disk < Lockstep::kDisks; ++disk) {
    lockstep.ScheduleDisk(disk, Lockstep::Kind::kDisk);
  }
  lockstep.Schedule(0.0, Lockstep::Kind::kMonitor);
  // Events pinned on both sides of powers of two up to 32 s.
  for (int k = -2; k <= 5; ++k) {
    const double power = std::ldexp(1.0, k);
    lockstep.ScheduleAt(std::nextafter(power, 0.0), Lockstep::Kind::kProbe);
    lockstep.ScheduleAt(power, Lockstep::Kind::kProbe);
    lockstep.ScheduleAt(
        std::nextafter(power, std::numeric_limits<double>::infinity()),
        Lockstep::Kind::kProbe);
  }

  // Run in RunUntil slices (some landing exactly on tick instants). After
  // each boundary, push between the boundary and the next head: at the
  // boundary itself, and just before the earliest pending event.
  Simulator& sim = lockstep.sim();
  double boundary = 0.0;
  while (boundary < 40.0) {
    boundary += lockstep.rng().NextDouble() < 0.2
                    ? 1.0 - std::fmod(boundary, 1.0)
                    : lockstep.rng().NextExponential(0.25);
    sim.RunUntil(boundary);
    ASSERT_EQ(sim.Now(), boundary);
    ASSERT_FALSE(lockstep.model().empty());
    ASSERT_GT(lockstep.model().Min().first, boundary);
    ASSERT_EQ(sim.events_executed(), lockstep.fired());
    const double gap = lockstep.model().Min().first - boundary;
    lockstep.Schedule(0.0, Lockstep::Kind::kProbe);
    lockstep.Schedule(gap * 0.5, Lockstep::Kind::kProbe);
    const uint64_t doomed =
        lockstep.Schedule(gap * 0.25, Lockstep::Kind::kProbe);
    lockstep.Cancel(doomed);
  }
  EXPECT_GT(lockstep.fired(), 100000u);

  // Step() pops without a boundary peek in between.
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_executed(), lockstep.fired());
}

}  // namespace
}  // namespace alc::sim
