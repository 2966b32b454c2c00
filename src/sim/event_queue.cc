#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace alc::sim {
namespace {

/// Below this many entries compaction is not worth the pass; lazy head
/// dropping handles small queues fine.
constexpr size_t kCompactMinEntries = 64;

/// Pre-sized for the paper-scale system (a few hundred in-flight events);
/// avoids every early regrowth of the hot vectors.
constexpr size_t kInitialCapacity = 1024;

}  // namespace

EventQueue::EventQueue() {
  std::fill(std::begin(bucket_head_), std::end(bucket_head_), kNil);
  nodes_.reserve(kInitialCapacity);
  slots_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cell.Reset();
  // Stamping the slot free is the cancellation/consumption: outstanding
  // handles and the queue entry both carry the old sequence and now fail
  // the O(1) liveness check.
  s.live_seq = 0;
  free_slots_.push_back(slot);
}

int EventQueue::LowestBucket() const {
  for (int word = 0; word < kBuckets / 64; ++word) {
    if (occupied_[word] != 0) {
      return word * 64 + __builtin_ctzll(occupied_[word]);
    }
  }
  return -1;
}

void EventQueue::Link(uint32_t node, int bucket) const {
  nodes_[node].next = bucket_head_[bucket];
  bucket_head_[bucket] = node;
  occupied_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
}

uint32_t EventQueue::Detach(int bucket) const {
  const uint32_t first = bucket_head_[bucket];
  bucket_head_[bucket] = kNil;
  occupied_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
  return first;
}

void EventQueue::FreeNode(uint32_t node) const {
  nodes_[node].next = free_node_;
  free_node_ = node;
  --entry_count_;
}

void EventQueue::Rebase(const Entry& entry) {
  // Every queued key x >= base_ > entry. Let D be the highest digit in
  // which entry and base_ differ; base_'s value there, b, exceeds entry's,
  // and target = bucket (D, b). A key whose bucket is at a digit above D
  // agrees with base_ — hence with entry — above that digit and keeps its
  // bucket; so does one at digit D (its value there exceeds b, which
  // exceeds entry's). Every lower bucket (bucket 0 included) agrees with
  // base_ at D and above, so its keys differ from entry first at D, with
  // value b: they all move to the target, which is empty (a key > base_
  // differing first at D has a value > b there). Those are exactly the
  // buckets below the target.
  const int target = BucketOf(base_, entry);
  for (int bucket = LowestBucket(); bucket >= 0 && bucket < target;
       bucket = LowestBucket()) {
    for (uint32_t node = Detach(bucket); node != kNil;) {
      const uint32_t next = nodes_[node].next;
      Link(node, target);
      node = next;
    }
  }
  base_ = entry;
}

EventQueue::Entry EventQueue::StampEntry(double time, uint32_t slot) {
  // time >= 0 keeps the bit-pattern comparison valid (rejects NaN too);
  // +0.0 canonicalizes a negative zero, whose bits would misorder.
  ALC_CHECK_GE(time, 0.0);
  const uint64_t seq = next_seq_++;
  ALC_DCHECK(seq < uint64_t{1} << (64 - kSlotBits));
  ALC_DCHECK(slot <= kSlotMask);
  slots_[slot].live_seq = seq;
  ++live_count_;
  return Entry{TimeBits(time + 0.0), (seq << kSlotBits) | slot};
}

uint32_t EventQueue::NewNode(const Entry& entry, uint32_t lane) {
  uint32_t node = free_node_;
  if (node != kNil) {
    free_node_ = nodes_[node].next;
  } else {
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node].entry = entry;
  nodes_[node].lane = lane;
  return node;
}

// Inlined into both push paths: the plain push is the engine's hottest
// call.
[[gnu::always_inline]] inline void EventQueue::Insert(const Entry& entry,
                                                      uint32_t lane) {
  if (Earlier(entry, base_)) Rebase(entry);
  Link(NewNode(entry, lane), BucketOf(entry, base_));
  ++entry_count_;
}

EventHandle EventQueue::FinishPush(double time, uint32_t slot) {
  const Entry entry = StampEntry(time, slot);
  Insert(entry, kNil);
  return EventHandle{entry.key};
}

uint32_t EventQueue::AddLane() {
  lanes_.emplace_back();
  return static_cast<uint32_t>(lanes_.size() - 1);
}

void EventQueue::FinishLanePush(uint32_t lane, double time, uint32_t slot) {
  ALC_DCHECK(lane < lanes_.size());
  const Entry entry = StampEntry(time, slot);
  Lane& fifo = lanes_[lane];
  if (!fifo.busy) {
    fifo.busy = true;
    fifo.tail = entry;
    Insert(entry, lane);
  } else if (Earlier(entry, fifo.tail)) {
    // Out of FIFO order: fires correctly as a plain heap entry.
    Insert(entry, kNil);
  } else {
    fifo.tail = entry;
    const uint32_t node = NewNode(entry, lane);
    nodes_[node].next = kNil;
    if (fifo.first == kNil) {
      fifo.first = node;
    } else {
      nodes_[fifo.last].next = node;
    }
    fifo.last = node;
    ++lane_waiting_;
  }
}

bool EventQueue::Cancel(EventHandle handle) {
  // gen() == 0 never identifies a live event (sequences start at 1); it
  // would compare equal to a free slot's cleared stamp and double-free it.
  if (!handle.valid() || handle.gen() == 0) return false;
  const uint32_t slot = handle.slot();
  if (slot >= slots_.size()) return false;
  if (slots_[slot].live_seq != handle.gen()) return false;
  ReleaseSlot(slot);
  --live_count_;
  CompactIfWorthIt();
  return true;
}

void EventQueue::CompactIfWorthIt() {
  if (entry_count_ < kCompactMinEntries) return;
  const size_t dead = entry_count_ - (live_count_ - lane_waiting_);
  if (dead * 2 <= entry_count_) return;
  // Tombstones outnumber live entries: filter every bucket in one pass.
  // Survivors keep their buckets (base_ is unchanged), so the (time, key)
  // pop sequence is exactly the same.
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    for (uint32_t node = Detach(bucket); node != kNil;) {
      const uint32_t next = nodes_[node].next;
      if (EntryDead(nodes_[node].entry)) {
        FreeNode(node);
      } else {
        Link(node, bucket);
      }
      node = next;
    }
  }
  ++compactions_;
}

uint32_t EventQueue::Head() const {
  ALC_CHECK(live_count_ > 0);
  for (;;) {
    if (bucket_head_[0] == kNil) {
      // Redistribute the lowest bucket around its minimum, which becomes
      // the new base: that minimum lands alone in bucket 0 and every other
      // entry at a lower digit than before. Higher buckets stay valid:
      // their keys agree with the old base, and so with the new one, above
      // the digit that names them, and their value of that digit still
      // exceeds the new base's.
      const int bucket = LowestBucket();
      uint32_t min = bucket_head_[bucket];
      for (uint32_t node = nodes_[min].next; node != kNil;
           node = nodes_[node].next) {
        min = Earlier(nodes_[node].entry, nodes_[min].entry) ? node : min;
      }
      base_ = nodes_[min].entry;
      for (uint32_t node = Detach(bucket); node != kNil;) {
        const uint32_t next = nodes_[node].next;
        Link(node, BucketOf(nodes_[node].entry, base_));
        node = next;
      }
    }
    const uint32_t head = bucket_head_[0];
    if (!EntryDead(nodes_[head].entry)) return head;
    Detach(0);
    FreeNode(head);
  }
}

double EventQueue::PeekTime() const {
  return BitsTime(nodes_[Head()].entry.tbits);
}

EventQueue::Fired EventQueue::Pop() {
  const uint32_t head = Head();
  const Entry top = nodes_[head].entry;
  const uint32_t lane = nodes_[head].lane;
  Detach(0);
  FreeNode(head);
  if (lane != kNil) {
    Lane& fifo = lanes_[lane];
    const uint32_t next = fifo.first;
    if (next == kNil) {
      fifo.busy = false;
    } else {
      // The lane's next entry exceeds `top`, now the base, so it links
      // without a rebase.
      fifo.first = nodes_[next].next;
      Link(next, BucketOf(nodes_[next].entry, base_));
      ++entry_count_;
      --lane_waiting_;
    }
  }
  const uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  // Move the payload out and free the slot before the caller invokes it:
  // the callable may push new events that reuse the slot or grow the table.
  Fired fired{BitsTime(top.tbits), std::move(slots_[slot].cell)};
  ReleaseSlot(slot);
  --live_count_;
  return fired;
}

}  // namespace alc::sim
