#include "db/database.h"

#include <algorithm>

#include "util/check.h"

namespace alc::db {

Database::Database(uint32_t size)
    : size_(size),
      leaf_of_((static_cast<size_t>(size) + kLeafItems - 1) >> kLeafBits, 0),
      // Default-initialised: a leaf is zeroed only when NewLeaf hands it out.
      seqs_(new uint64_t[(leaf_of_.size() + 1) << kLeafBits]) {
  ALC_CHECK_GT(size, 0u);
  NewLeaf();  // leaf 0, read by every block before its first write
}

uint32_t Database::NewLeaf() {
  const uint32_t leaf = num_leaves_++;
  std::fill_n(seqs_.get() + LeafSlot(leaf, 0), kLeafItems, uint64_t{0});
  return leaf;
}

AccessPatternGenerator::AccessPatternGenerator(const LogicalConfig* config,
                                               sim::RandomStream rng)
    : config_(config), rng_(rng) {
  ALC_CHECK(config != nullptr);
}

void AccessPatternGenerator::PlanAccesses(Transaction* txn, uint32_t db_size,
                                          int k, double write_fraction) {
  ALC_CHECK_GT(k, 0);
  ALC_CHECK_LE(static_cast<uint32_t>(k), db_size);
  txn->access_modes.clear();

  const bool use_hotspot = config_->hotspot_access_prob > 0.0 &&
                           config_->hotspot_size_fraction > 0.0;
  if (!use_hotspot) {
    rng_.SampleWithoutReplacement(db_size, k, &txn->access_items, &dedup_);
  } else {
    // b-c rule: each access hits the hot region with probability p. Draw
    // per-access then deduplicate by redrawing collisions (k << D so the
    // retry count is tiny).
    const uint32_t hot =
        std::max<uint32_t>(1, static_cast<uint32_t>(
                                  config_->hotspot_size_fraction * db_size));
    txn->access_items.clear();
    dedup_.Begin(db_size);
    while (static_cast<int>(txn->access_items.size()) < k) {
      const bool in_hot = rng_.NextBernoulli(config_->hotspot_access_prob);
      const uint32_t item =
          in_hot ? static_cast<uint32_t>(rng_.NextUint64(hot))
                 : hot + static_cast<uint32_t>(rng_.NextUint64(db_size - hot));
      if (!dedup_.Contains(item)) {
        dedup_.Add(item);
        txn->access_items.push_back(item);
      }
    }
  }

  txn->access_modes.resize(txn->access_items.size(), AccessMode::kRead);
  if (txn->cls == TxnClass::kUpdater) {
    for (auto& mode : txn->access_modes) {
      if (rng_.NextBernoulli(write_fraction)) mode = AccessMode::kWrite;
    }
  }
}

void AccessPatternGenerator::PlanAccessesWithAffinity(
    Transaction* txn, uint32_t db_size, int k, double write_fraction,
    double affinity, uint32_t region_start, uint32_t region_size) {
  ALC_CHECK_GT(k, 0);
  ALC_CHECK_LE(static_cast<uint32_t>(k), db_size);
  ALC_CHECK_GT(region_size, 0u);
  ALC_CHECK_LE(static_cast<uint64_t>(region_start) + region_size, db_size);
  // affinity == 1 never samples outside the region, so the region must be
  // able to hold k distinct items or the redraw loop could not terminate.
  if (affinity >= 1.0) ALC_CHECK_GE(region_size, static_cast<uint32_t>(k));

  // Same b-c rule as the static hotspot, but the "hot" region is the
  // session's private key range — a hot spot that moves with the user.
  txn->access_items.clear();
  txn->access_modes.clear();
  dedup_.Begin(db_size);
  while (static_cast<int>(txn->access_items.size()) < k) {
    const bool in_region = rng_.NextBernoulli(affinity);
    const uint32_t item =
        in_region ? region_start +
                        static_cast<uint32_t>(rng_.NextUint64(region_size))
                  : static_cast<uint32_t>(rng_.NextUint64(db_size));
    if (!dedup_.Contains(item)) {
      dedup_.Add(item);
      txn->access_items.push_back(item);
    }
  }

  txn->access_modes.resize(txn->access_items.size(), AccessMode::kRead);
  if (txn->cls == TxnClass::kUpdater) {
    for (auto& mode : txn->access_modes) {
      if (rng_.NextBernoulli(write_fraction)) mode = AccessMode::kWrite;
    }
  }
}

}  // namespace alc::db
