#ifndef ALC_DB_DATABASE_H_
#define ALC_DB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "db/config.h"
#include "db/transaction.h"
#include "db/types.h"
#include "sim/random.h"

namespace alc::db {

/// The database of D granules plus the per-item metadata needed by the CC
/// schemes. No payload values are modelled — concurrency behaviour depends
/// only on which items are touched, not on what is stored in them.
///
/// The OCC write sequences live in a two-level table: each block of
/// kLeafItems consecutive items maps to a leaf, handed out in first-write
/// order from storage reserved at construction and zeroed when first used.
/// A block without a leaf maps to leaf 0, which stays all zero, so a read
/// never branches. A build therefore writes one index entry per block, not
/// one sequence per item, and a run's written leaves sit together however
/// the items spread over the keyspace. Nothing allocates after
/// construction.
class Database {
 public:
  explicit Database(uint32_t size);

  uint32_t size() const { return size_; }

  /// OCC: sequence number of the last committed write of `item` (0 = never).
  uint64_t last_write_seq(ItemId item) const {
    return seqs_[LeafSlot(leaf_of_[item >> kLeafBits], item)];
  }
  void set_last_write_seq(ItemId item, uint64_t seq) {
    uint32_t& leaf = leaf_of_[item >> kLeafBits];
    if (leaf == 0) leaf = NewLeaf();
    seqs_[LeafSlot(leaf, item)] = seq;
  }

 private:
  static constexpr int kLeafBits = 6;
  static constexpr uint32_t kLeafItems = 1u << kLeafBits;  // 64

  static size_t LeafSlot(uint32_t leaf, ItemId item) {
    return (static_cast<size_t>(leaf) << kLeafBits) | (item & (kLeafItems - 1));
  }
  /// Hands out and zeroes the next unused leaf.
  uint32_t NewLeaf();

  uint32_t size_;
  /// Per block: its leaf, or 0 (the all-zero leaf) before its first write.
  std::vector<uint32_t> leaf_of_;
  uint32_t num_leaves_ = 0;
  /// Room for the zero leaf and a leaf per block; a leaf is left
  /// uninitialised until handed out.
  std::unique_ptr<uint64_t[]> seqs_;
};

/// Draws the access plan of a transaction attempt: k distinct items selected
/// uniformly at random (paper: "data items are selected randomly (i.e. no
/// hot spots)"), plus planned access modes. An optional hot-spot extension
/// skews a fraction of accesses into a small region.
class AccessPatternGenerator {
 public:
  AccessPatternGenerator(const LogicalConfig* config, sim::RandomStream rng);

  /// Fills txn->access_items / access_modes for a fresh attempt.
  /// `k` and `write_fraction` are passed explicitly because they are
  /// time-varying (workload schedules). Samples directly into the txn's
  /// vectors with an O(1) stamp-based duplicate check; at steady state
  /// (recycled transaction slots) planning performs no allocation.
  void PlanAccesses(Transaction* txn, uint32_t db_size, int k,
                    double write_fraction);

  /// PlanAccesses variant with a movable per-transaction hot region
  /// (session key affinity): each access lands uniformly in
  /// [region_start, region_start + region_size) with probability
  /// `affinity`, uniformly over the whole keyspace otherwise (collisions
  /// redrawn, like the hotspot rule). The region must fit the keyspace and
  /// k <= db_size. Draws a different variate sequence than PlanAccesses,
  /// so callers must choose one path per arrival, not mix per attempt.
  void PlanAccessesWithAffinity(Transaction* txn, uint32_t db_size, int k,
                                double write_fraction, double affinity,
                                uint32_t region_start, uint32_t region_size);

 private:
  const LogicalConfig* config_;
  sim::RandomStream rng_;
  sim::SampleScratch dedup_;
};

}  // namespace alc::db

#endif  // ALC_DB_DATABASE_H_
