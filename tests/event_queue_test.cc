#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_cell.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace alc::sim {
namespace {

TEST(EventCellTest, SmallCapturesStayInline) {
  int sink = 0;
  int* p = &sink;
  EventCell cell([p] { ++*p; });
  EXPECT_TRUE(cell.is_inline());
  cell();
  EXPECT_EQ(sink, 1);
}

TEST(EventCellTest, OversizedCapturesFallBackToHeap) {
  struct Big {
    char bytes[96];
  };
  Big big{};
  big.bytes[0] = 7;
  int sink = 0;
  EventCell cell([big, &sink] { sink = big.bytes[0]; });
  EXPECT_FALSE(cell.is_inline());
  cell();
  EXPECT_EQ(sink, 7);
}

TEST(EventCellTest, MoveTransfersPayload) {
  int sink = 0;
  EventCell a([&sink] { ++sink; });
  EventCell b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(sink, 1);
  EventCell c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(sink, 2);
}

TEST(EventCellTest, QueueCellFitsOwnerPlusPayloadInline) {
  // The CPU/disk completion pattern: an owner pointer plus a moved-in
  // payload cell must still be inline in the queue's storage cell,
  // otherwise every service completion in the system allocates.
  int sink = 0;
  EventCell payload([&sink] { sink += 10; });
  int* owner = &sink;
  EventQueue::Cell completion(
      [owner, done = std::move(payload)]() mutable {
        ++*owner;
        done();
      });
  EXPECT_TRUE(completion.is_inline());
  completion();
  EXPECT_EQ(sink, 11);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3.0, [&] { order.push_back(3); });
  queue.Push(1.0, [&] { order.push_back(1); });
  queue.Push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.Push(7.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.Pop().cell();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PeekTimeMatchesPop) {
  EventQueue queue;
  queue.Push(4.5, [] {});
  queue.Push(2.5, [] {});
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 2.5);
  EXPECT_DOUBLE_EQ(queue.Pop().time, 2.5);
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 4.5);
}

TEST(EventQueueTest, PeekAndEmptyAreConstAndTombstoneAware) {
  // Regression for the pre-refactor interface: PeekTime was non-const, and
  // peek/empty had to be usable with tombstones sitting at the heap head.
  EventQueue queue;
  const EventQueue& view = queue;
  EventHandle head = queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  ASSERT_TRUE(queue.Cancel(head));
  // The cancelled event is still in the heap, but a const peek must see
  // through it to the first live event.
  EXPECT_FALSE(view.empty());
  EXPECT_EQ(view.live_count(), 1u);
  EXPECT_DOUBLE_EQ(view.PeekTime(), 2.0);
  EventHandle last = queue.Push(3.0, [] {});
  queue.Pop();
  ASSERT_TRUE(queue.Cancel(last));
  // Only tombstones remain: empty() must say so without popping them.
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.live_count(), 0u);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  EventHandle handle = queue.Push(1.0, [&] { fired = true; });
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  EventHandle handle = queue.Push(1.0, [] {});
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_FALSE(queue.Cancel(handle));
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue queue;
  EventHandle handle = queue.Push(1.0, [] {});
  queue.Pop().cell();
  EXPECT_FALSE(queue.Cancel(handle));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelInvalidHandleFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(EventHandle{}));
  // Out-of-range slot and mismatched generation are both rejected.
  EXPECT_FALSE(queue.Cancel(EventHandle{(uint64_t{1} << 24) | 9999u}));
  queue.Push(1.0, [] {});
  EXPECT_FALSE(queue.Cancel(EventHandle{uint64_t{4242} << 24}));
  // A forged generation-0 handle must not match a free slot's cleared
  // stamp (that would double-free the slot).
  queue.Pop().cell();
  EXPECT_FALSE(queue.Cancel(EventHandle{1}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(1.0, [&] { order.push_back(1); });
  EventHandle mid = queue.Push(2.0, [&] { order.push_back(2); });
  queue.Push(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.Cancel(mid));
  EXPECT_EQ(queue.live_count(), 2u);
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, LiveCountTracksPushPopCancel) {
  EventQueue queue;
  EXPECT_EQ(queue.live_count(), 0u);
  EventHandle a = queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  EXPECT_EQ(queue.live_count(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.live_count(), 1u);
  queue.Pop();
  EXPECT_EQ(queue.live_count(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SlotReuseAfterGenerationBump) {
  EventQueue queue;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle first = queue.Push(1.0, [&] { first_fired = true; });
  ASSERT_TRUE(queue.Cancel(first));
  // The freed slot is reused: the new event gets the same slot with a
  // bumped generation.
  EventHandle second = queue.Push(2.0, [&] { second_fired = true; });
  EXPECT_EQ(second.slot(), first.slot());
  EXPECT_NE(second.gen(), first.gen());
  // The stale handle must not cancel (or otherwise affect) the new event.
  EXPECT_FALSE(queue.Cancel(first));
  EXPECT_EQ(queue.live_count(), 1u);
  queue.Pop().cell();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  // And after the fire, both handles are dead.
  EXPECT_FALSE(queue.Cancel(second));
  EXPECT_FALSE(queue.Cancel(first));
}

TEST(EventQueueTest, CompactionDropsTombstonesAndPreservesOrder) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 512;
  for (int i = 0; i < kEvents; ++i) {
    // Colliding times so ordering falls back to scheduling order.
    const double time = static_cast<double>(i % 7);
    handles.push_back(queue.Push(time, [&order, i] { order.push_back(i); }));
  }
  // Cancel two thirds to cross the tombstone-majority compaction boundary.
  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 0) {
      ASSERT_TRUE(queue.Cancel(handles[i]));
    }
  }
  EXPECT_GE(queue.compactions(), 1u);
  // Compaction keeps the invariant: tombstones never make up more than half
  // of the heap (cancels after the last compaction may leave a minority).
  EXPECT_LT(queue.heap_size(), static_cast<size_t>(kEvents));
  EXPECT_LE((queue.heap_size() - queue.live_count()) * 2, queue.heap_size());
  for (int t = 0; t < 7; ++t) {
    for (int i = 0; i < kEvents; ++i) {
      if (i % 3 == 0 && i % 7 == t) expected.push_back(i);
    }
  }
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, StressInterleavedPushCancelPopMatchesModel) {
  // Reference-model check: random interleaving of pushes (many with equal
  // timestamps), cancels and pops must fire exactly the model's sequence.
  // Crosses compaction boundaries and reuses slots across generations.
  struct ModelEvent {
    double time;
    uint64_t seq;
    int id;
  };
  RandomStream rng(99);
  EventQueue queue;
  std::vector<ModelEvent> model;
  std::vector<std::pair<int, EventHandle>> cancellable;
  std::vector<int> fired;
  std::vector<int> expected;
  uint64_t seq = 0;
  int next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    const double p = rng.NextDouble();
    if (p < 0.55) {
      // Equal timestamps on purpose: only 8 distinct times.
      const double time = static_cast<double>(rng.NextUint64(8));
      const int id = next_id++;
      EventHandle handle =
          queue.Push(time, [&fired, id] { fired.push_back(id); });
      model.push_back(ModelEvent{time, seq++, id});
      cancellable.emplace_back(id, handle);
    } else if (p < 0.75 && !cancellable.empty()) {
      const size_t pick = rng.NextUint64(cancellable.size());
      const auto [id, handle] = cancellable[pick];
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
      ASSERT_TRUE(queue.Cancel(handle));
      EXPECT_FALSE(queue.Cancel(handle));
      auto it = std::find_if(model.begin(), model.end(),
                             [id](const ModelEvent& e) { return e.id == id; });
      ASSERT_NE(it, model.end());
      model.erase(it);
    } else if (!queue.empty()) {
      auto it = std::min_element(model.begin(), model.end(),
                                 [](const ModelEvent& a, const ModelEvent& b) {
                                   if (a.time != b.time) return a.time < b.time;
                                   return a.seq < b.seq;
                                 });
      ASSERT_NE(it, model.end());
      EXPECT_DOUBLE_EQ(queue.PeekTime(), it->time);
      expected.push_back(it->id);
      const int id = it->id;
      model.erase(it);
      const auto popped =
          std::find_if(cancellable.begin(), cancellable.end(),
                       [id](const auto& c) { return c.first == id; });
      if (popped != cancellable.end()) cancellable.erase(popped);
      queue.Pop().cell();
    }
    ASSERT_EQ(queue.live_count(), model.size());
  }
  while (!queue.empty()) {
    auto it = std::min_element(model.begin(), model.end(),
                               [](const ModelEvent& a, const ModelEvent& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    expected.push_back(it->id);
    model.erase(it);
    queue.Pop().cell();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired, expected);
}

TEST(EventQueueLaneTest, EqualTimeLaneAndPlainPushesFireInScheduleOrder) {
  EventQueue queue;
  const uint32_t lane = queue.AddLane();
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      queue.Push(5.0, [&order, i] { order.push_back(i); });
    } else {
      queue.PushLane(lane, 5.0, [&order, i] { order.push_back(i); });
    }
  }
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(EventQueueLaneTest, BelowTailPushFallsBackAndKeepsOrder) {
  // A stall edge: the delay drops mid-stream, so the next push lands below
  // the lane's tail and must still fire in (time, seq) order.
  EventQueue queue;
  const uint32_t lane = queue.AddLane();
  std::vector<int> order;
  queue.PushLane(lane, 4.0, [&order] { order.push_back(0); });
  queue.PushLane(lane, 8.0, [&order] { order.push_back(1); });
  queue.PushLane(lane, 2.0, [&order] { order.push_back(2); });  // fallback
  queue.PushLane(lane, 8.0, [&order] { order.push_back(3); });
  queue.PushLane(lane, 3.0, [&order] { order.push_back(4); });  // fallback
  EXPECT_EQ(queue.live_count(), 5u);
  // The head (4.0) and both fallbacks are in the heap; 8.0 and 8.0 wait.
  EXPECT_EQ(queue.heap_size(), 3u);
  std::vector<double> times;
  while (!queue.empty()) {
    EventQueue::Fired fired = queue.Pop();
    times.push_back(fired.time);
    fired.cell();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 4, 0, 1, 3}));
  EXPECT_EQ(times, (std::vector<double>{2.0, 3.0, 4.0, 8.0, 8.0}));
}

TEST(EventQueueLaneTest, DrainedLaneRearms) {
  EventQueue queue;
  const uint32_t lane = queue.AddLane();
  std::vector<double> times;
  for (int round = 0; round < 3; ++round) {
    const double start = 10.0 * round;
    for (int i = 0; i < 4; ++i) {
      queue.PushLane(lane, start + i, [] {});
    }
    EXPECT_EQ(queue.heap_size(), 1u);
    while (!queue.empty()) times.push_back(queue.Pop().time);
    EXPECT_EQ(queue.heap_size(), 0u);
  }
  // After draining, a push below the old tail starts the lane afresh
  // rather than falling back.
  queue.PushLane(lane, 25.0, [] {});
  queue.PushLane(lane, 26.0, [] {});
  EXPECT_EQ(queue.heap_size(), 1u);
  while (!queue.empty()) times.push_back(queue.Pop().time);
  EXPECT_EQ(times, (std::vector<double>{0, 1, 2, 3, 10, 11, 12, 13, 20, 21,
                                        22, 23, 25, 26}));
}

TEST(EventQueueLaneTest, LiveCountCountsWaitingEntries) {
  EventQueue queue;
  const uint32_t lane = queue.AddLane();
  queue.Push(0.5, [] {});
  for (int i = 1; i <= 5; ++i) queue.PushLane(lane, i, [] {});
  EXPECT_EQ(queue.live_count(), 6u);
  EXPECT_FALSE(queue.empty());
  for (size_t left = 6; left > 0; --left) {
    EXPECT_EQ(queue.live_count(), left);
    queue.Pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueLaneTest, HeapHoldsOneEntryPerLane) {
  EventQueue queue;
  const uint32_t a = queue.AddLane();
  const uint32_t b = queue.AddLane();
  constexpr int kWaiting = 100;
  for (int i = 0; i < kWaiting; ++i) {
    queue.PushLane(a, 0.035 * i, [] {});
    queue.PushLane(b, 0.035 * i + 0.01, [] {});
  }
  EXPECT_EQ(queue.live_count(), 2u * kWaiting);
  EXPECT_EQ(queue.heap_size(), 2u);
  // Popping keeps exactly one heap entry per non-empty lane.
  for (int i = 0; i < kWaiting; ++i) {
    EXPECT_DOUBLE_EQ(queue.Pop().time, 0.035 * i);
    EXPECT_EQ(queue.heap_size(), i + 1 < kWaiting ? 2u : 1u);
    EXPECT_DOUBLE_EQ(queue.Pop().time, 0.035 * i + 0.01);
    EXPECT_EQ(queue.heap_size(), i + 1 < kWaiting ? 2u : 0u);
  }
}

TEST(EventQueueLaneTest, CompactionWithWaitingLaneEntriesKeepsOrder) {
  // Cancelled plain entries outnumber the live heap entries, while lanes
  // hold many more live entries outside the heap: compaction must weigh
  // tombstones against the heap's live entries only, and keep the order.
  EventQueue queue;
  const uint32_t lane = queue.AddLane();
  std::vector<int> order;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 300;
  for (int i = 0; i < kEvents; ++i) {
    const double time = static_cast<double>(i % 5);
    handles.push_back(queue.Push(time, [&order, i] { order.push_back(i); }));
    const int id = kEvents + i;
    queue.PushLane(lane, 0.02 * i, [&order, id] { order.push_back(id); });
  }
  for (int i = 0; i < kEvents; ++i) {
    if (i % 4 != 0) {
      ASSERT_TRUE(queue.Cancel(handles[i]));
    }
  }
  // One pass once tombstones pass half of the 301 heap entries; counting
  // the waiting lane entries as heap-live would compact on every cancel.
  EXPECT_EQ(queue.compactions(), 1u);
  EXPECT_EQ(queue.live_count(), static_cast<size_t>(kEvents / 4 + kEvents));
  // Tombstones stay a heap minority; the lane contributes one heap entry.
  EXPECT_LE((queue.heap_size() - (kEvents / 4 + 1)) * 2, queue.heap_size());
  struct Expected {
    double time;
    int seq;  // scheduling position
    int id;
  };
  std::vector<Expected> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 4 == 0) expected.push_back({static_cast<double>(i % 5), 2 * i, i});
    expected.push_back({0.02 * i, 2 * i + 1, kEvents + i});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Expected& x, const Expected& y) {
              if (x.time != y.time) return x.time < y.time;
              return x.seq < y.seq;
            });
  std::vector<int> expected_ids;
  for (const Expected& e : expected) expected_ids.push_back(e.id);
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, expected_ids);
}

TEST(SimulatorTest, ScheduleLaneFiresLikeSchedule) {
  Simulator sim;
  const uint32_t lane = sim.AddLane();
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    sim.ScheduleLane(lane, 0.5, [&] { order.push_back(2); });
    sim.Schedule(0.5, [&] { order.push_back(3); });
    sim.ScheduleLane(lane, 0.0, [&] { order.push_back(1); });
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.5);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.Schedule(5.0, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulatorTest, NestedSchedulingUsesCurrentTime) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(1.0, [&] {
    times.push_back(sim.Now());
    sim.Schedule(2.0, [&] { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(SimulatorTest, ZeroDelayFiresAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(1);
    sim.Schedule(0.0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.ScheduleAt(t, [&] { ++fired; });
  }
  sim.RunUntil(2.5);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.5);
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 4);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, EventAtBoundaryIncluded) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(2.0, [&] { fired = true; });
  sim.RunUntil(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(handle));
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.Schedule(i, [] {});
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(SimulatorTest, ManyEventsDeterministicOrder) {
  // Two identical simulations must execute identically.
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      sim.Schedule((i * 7919) % 100, [&order, i] { order.push_back(i); });
    }
    sim.RunAll();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace alc::sim
