#ifndef ALC_SIM_EVENT_QUEUE_H_
#define ALC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/event_cell.h"

namespace alc::sim {

/// Handle identifying a scheduled event, used for cancellation. Packs the
/// slot that stores the event's payload and the event's unique sequence
/// number (its generation stamp): the slot records the sequence of the
/// event currently occupying it, so a stale handle — the event fired, was
/// cancelled, or the slot was reused — fails an O(1) equality check with no
/// side table. Zero is the invalid handle (sequences start at 1).
struct EventHandle {
  /// seq occupies the high 40 bits of the key (about 10^12 events per
  /// queue), the slot index the low 24 (about 16M concurrently scheduled
  /// events). Shared with EventQueue's entry encoding.
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;

  uint64_t key = 0;
  bool valid() const { return key != 0; }
  uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  uint64_t gen() const { return key >> kSlotBits; }
};

/// Time-ordered queue of callables. Events with equal timestamps fire in
/// scheduling order (stable), which makes runs deterministic.
///
/// Layout: the ordering structure is a radix heap (Ahuja, Mehlhorn, Orlin
/// and Tarjan) with 4-bit digits, over 128-bit keys {time bits, seq|slot};
/// payloads live in a generation-stamped slot table on the side, so
/// reordering moves two words and never touches the callables. An entry
/// sits in the bucket named by the highest digit in which its key differs
/// from `base_`, a lower bound on every queued key (the last extracted
/// one), and by its value of that digit; bucket 0 holds the entry equal to
/// `base_`, i.e. the settled head. Taking the head either finds it in
/// bucket 0 or redistributes the lowest non-empty bucket around that
/// bucket's minimum, which moves every entry to a lower digit, so an entry
/// moves at most once per digit (on a 1k-event hold model, 2.5 moves per
/// pop against 4.0 with single-bit buckets). The simulator only
/// pushes at `time >= now` with a fresh, larger sequence, so its keys
/// never fall below the base; a push that does (raw-queue callers, or a
/// push between a RunUntil boundary and an already-settled head) re-bases
/// first, merging the buckets under the new key's bucket.
///
/// The pop order is the (time, key) order, a strict total order, so it
/// does not depend on how the queue arranges its entries. Cancellation
/// stamps the slot free and destroys the payload immediately; the entry
/// becomes a tombstone that is dropped when it settles at the head, or in
/// bulk when tombstones outnumber live entries (compaction). Liveness is
/// probed only at the head, never while redistributing. Push/cancel/pop
/// are allocation-free at steady state: entries are nodes of one pooled
/// arena threaded into per-bucket lists, and the slot table and payload
/// cells are reused likewise.
///
/// FIFO lanes: a source whose events are scheduled at a constant delay
/// (a constant-service disk, a fixed network round trip) pushes them in
/// key order already, so only its earliest pending event needs to be in
/// the heap. PushLane() keeps that head in the heap, tagged with its lane,
/// and threads the rest, in order, into the lane's list of arena nodes
/// outside the heap; popping a lane head links the lane's next node into
/// the heap, whose key exceeds the base just set by the pop, so no rebase
/// is needed. A lane push whose key is
/// below the lane's tail (the delay dropped, e.g. when a disk-stall window
/// closes) cannot join the FIFO and goes into the heap as a plain entry.
/// Keys are stamped exactly as for Push(), so lanes change only how many
/// entries the heap holds, never the pop order. Lane events cannot be
/// cancelled: PushLane returns no handle.
class EventQueue {
 public:
  /// Storage cell for one scheduled event. 72 inline bytes: enough for an
  /// owner pointer plus a moved-in EventCell payload (the CPU/disk
  /// completion pattern), so chained continuations stay allocation-free.
  using Cell = BasicEventCell<72>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `time >= 0`. Returns a handle for
  /// Cancel(). The callable is constructed directly in its slot (no
  /// temporary cell).
  template <typename F>
  EventHandle Push(double time, F&& fn) {
    const uint32_t slot = AcquireSlot();
    slots_[slot].cell.Emplace(std::forward<F>(fn));
    return FinishPush(time, slot);
  }

  /// Creates an empty FIFO lane and returns its id for PushLane().
  uint32_t AddLane();

  /// Schedules `fn` at absolute time `time >= 0` in lane `lane`. Fires in
  /// the same (time, scheduling order) position as Push() would give it;
  /// pays off when the lane's pushes come in time order.
  template <typename F>
  void PushLane(uint32_t lane, double time, F&& fn) {
    const uint32_t slot = AcquireSlot();
    slots_[slot].cell.Emplace(std::forward<F>(fn));
    FinishLanePush(lane, time, slot);
  }

  /// Cancels the event if it has not fired: the payload is destroyed now,
  /// the queue entry is tombstoned in place. Returns true if it was live.
  bool Cancel(EventHandle handle);

  /// True if no live events remain (tombstone-aware: cancelled events never
  /// count, whether or not their entries have been dropped yet). Lane
  /// entries waiting behind their lane's head count as live.
  bool empty() const { return live_count_ == 0; }

  size_t live_count() const { return live_count_; }

  /// Time of the earliest live event. Requires !empty().
  double PeekTime() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Fired {
    double time;
    Cell cell;
  };
  Fired Pop();

  /// Introspection for tests and benchmarks. heap_size() counts entries in
  /// the radix heap, tombstones included; lane entries waiting behind
  /// their lane's head are not in it.
  size_t heap_size() const { return entry_count_; }
  size_t slot_count() const { return slots_.size(); }
  uint64_t compactions() const { return compactions_; }

 private:
  /// Entry keys use EventHandle's seq/slot packing. Comparing keys
  /// compares sequences: seq is unique, so the (time, key) order is a
  /// strict total order and the pop sequence is independent of the
  /// queue's internal arrangement — compaction cannot reorder fires.
  static constexpr int kSlotBits = EventHandle::kSlotBits;
  static constexpr uint32_t kSlotMask = EventHandle::kSlotMask;

  /// Event times are required to be >= 0 (virtual time), so their IEEE-754
  /// bit patterns order identically to the doubles themselves when compared
  /// as unsigned integers. Storing the bits makes the order one 128-bit
  /// unsigned comparison, and a key's bucket one XOR plus a leading-zero
  /// count.
  struct Entry {
    uint64_t tbits;  // bit pattern of the (non-negative) event time
    uint64_t key;    // (seq << kSlotBits) | slot
  };
  static constexpr uint32_t kNil = ~uint32_t{0};

  /// Arena node: an entry threaded into its bucket's list, its lane's
  /// waiting list, or the free list. `lane` fills the struct's padding:
  /// the lane the entry belongs to, or kNil for a plain entry.
  struct Node {
    Entry entry;
    uint32_t next;
    uint32_t lane;
  };
  static_assert(sizeof(Node) == 24, "the lane tag must fit the padding");
  struct Lane {
    /// First and last node waiting behind the head, in key order; `first`
    /// is kNil when none waits (`last` is then stale).
    uint32_t first = kNil;
    uint32_t last = kNil;
    /// True while the lane's head is in the heap.
    bool busy = false;
    /// Largest key the lane has taken; pushes below it fall back to plain.
    Entry tail{0, 0};
  };
  struct Slot {
    /// Sequence of the occupying event; 0 when free (tombstone marker).
    /// First member so the liveness probe warms the payload's cache line.
    uint64_t live_seq = 0;
    Cell cell;
  };

  /// Bucket b >= 1 holds keys whose highest 4-bit digit differing from
  /// base_ is digit b / 16 of the 128-bit key, with value b % 16 there.
  /// Bucket order is extraction order: a lower digit, or the same digit
  /// with a lower value, holds smaller keys. Bucket 0 holds the key equal
  /// to base_.
  static constexpr int kBuckets = 512;

  static uint64_t TimeBits(double time) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(time));
    std::memcpy(&bits, &time, sizeof(bits));
    return bits;
  }
  static double BitsTime(uint64_t bits) {
    double time;
    std::memcpy(&time, &bits, sizeof(time));
    return time;
  }

  static bool Earlier(const Entry& a, const Entry& b) {
#ifdef __SIZEOF_INT128__
    const auto pack = [](const Entry& e) {
      return static_cast<unsigned __int128>(e.tbits) << 64 | e.key;
    };
    return pack(a) < pack(b);
#else
    if (a.tbits != b.tbits) return a.tbits < b.tbits;
    return a.key < b.key;
#endif
  }

  /// Bucket of `entry` relative to `base` (entry >= base): 0 when equal,
  /// else 16 * the highest 4-bit digit in which they differ + `entry`'s
  /// value of that digit (which exceeds `base`'s there).
  static int BucketOf(const Entry& entry, const Entry& base) {
    const uint64_t high = entry.tbits ^ base.tbits;
    if (high != 0) {
      const int digit = (127 - __builtin_clzll(high)) >> 2;
      return digit << 4 |
             static_cast<int>(entry.tbits >> ((digit << 2) - 64) & 15);
    }
    const uint64_t low = entry.key ^ base.key;
    if (low == 0) return 0;
    const int digit = (63 - __builtin_clzll(low)) >> 2;
    return digit << 4 | static_cast<int>(entry.key >> (digit << 2) & 15);
  }

  bool EntryDead(const Entry& entry) const {
    return slots_[entry.key & kSlotMask].live_seq != entry.key >> kSlotBits;
  }

  uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  /// Non-template tails of Push and PushLane; the slot's cell must
  /// already hold the payload.
  EventHandle FinishPush(double time, uint32_t slot);
  void FinishLanePush(uint32_t lane, double time, uint32_t slot);
  /// Stamps the next sequence on `slot` and returns its entry; counts the
  /// event live.
  Entry StampEntry(double time, uint32_t slot);
  /// Takes a node from the free list (or grows the arena) holding `entry`
  /// tagged with `lane` (kNil: plain).
  uint32_t NewNode(const Entry& entry, uint32_t lane);
  /// Links `entry` into the heap, tagged with `lane`.
  void Insert(const Entry& entry, uint32_t lane);
  void ReleaseSlot(uint32_t slot);

  /// Lowest non-empty bucket, or -1 when no entries are queued.
  int LowestBucket() const;
  /// Pushes arena node `node` onto bucket `bucket`'s list.
  void Link(uint32_t node, int bucket) const;
  /// Detaches bucket `bucket`'s list and returns its first node.
  uint32_t Detach(int bucket) const;
  /// Returns node `node` to the arena's free list.
  void FreeNode(uint32_t node) const;
  /// Lowers base_ to `entry` (< base_): every bucket below the one that
  /// `entry` falls into relative to the old base merges into it.
  void Rebase(const Entry& entry);
  /// Settles the earliest live entry into bucket 0 and returns its node,
  /// dropping tombstones that settle first. const: reorders the mutable
  /// buckets without changing the live set (tombstones' slots were
  /// released when they were cancelled). Requires !empty().
  uint32_t Head() const;
  void CompactIfWorthIt();

  /// Bucket lists over the node arena; mutable so that const peeks can
  /// settle the head and drop tombstones lazily.
  mutable std::vector<Node> nodes_;
  mutable uint32_t free_node_ = kNil;
  mutable uint32_t bucket_head_[kBuckets];
  /// Bit b set iff bucket b is non-empty.
  mutable uint64_t occupied_[kBuckets / 64] = {};
  /// Lower bound on every queued key; the last settled head.
  mutable Entry base_{0, 0};
  mutable size_t entry_count_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Lane> lanes_;
  /// Entries waiting behind their lane's head (live but not in the heap).
  size_t lane_waiting_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace alc::sim

#endif  // ALC_SIM_EVENT_QUEUE_H_
