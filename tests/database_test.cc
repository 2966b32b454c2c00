#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/transaction.h"
#include "sim/random.h"

namespace alc::db {
namespace {

TEST(DatabaseTest, InitialWriteSequencesAreZero) {
  Database db(100);
  EXPECT_EQ(db.size(), 100u);
  for (ItemId i = 0; i < 100; ++i) {
    EXPECT_EQ(db.last_write_seq(i), 0u);
  }
}

TEST(DatabaseTest, SetAndGetWriteSeq) {
  Database db(10);
  db.set_last_write_seq(3, 77);
  EXPECT_EQ(db.last_write_seq(3), 77u);
  EXPECT_EQ(db.last_write_seq(4), 0u);
}

// The leaf table against a flat array of write sequences. The first write
// goes to the last item, so leaves are handed out out of block order; then
// writes land at both edges of each 64-item leaf and at random items,
// overwriting earlier ones, and every item, written or not, reads back what
// the flat array holds.
TEST(DatabaseTest, LeafTableMatchesAFlatArray) {
  for (const uint32_t size : {1u, 63u, 64u, 65u, 1000u, 16384u}) {
    SCOPED_TRACE(size);
    Database db(size);
    std::vector<uint64_t> flat(size, 0);
    sim::RandomStream rng(size);
    const auto check_all = [&] {
      for (ItemId i = 0; i < size; ++i) {
        ASSERT_EQ(db.last_write_seq(i), flat[i]) << "item " << i;
      }
    };
    check_all();
    uint64_t seq = 0;
    const auto write = [&](ItemId item) {
      db.set_last_write_seq(item, ++seq);
      flat[item] = seq;
    };
    write(size - 1);
    for (ItemId edge = 0; edge < size; edge += 64) {
      write(edge);
      if (edge + 63 < size) write(edge + 63);
      if (edge > 0) write(edge - 1);
    }
    check_all();
    // Random writes over a quarter of the keyspace's worth, so later ones
    // overwrite earlier ones.
    for (uint32_t n = 0; n < size / 4 + 8; ++n) {
      write(static_cast<ItemId>(rng.NextUint64(size)));
    }
    check_all();
    write(0);  // overwrite the first item again
    check_all();
  }
}

class AccessPatternTest : public ::testing::Test {
 protected:
  LogicalConfig config_;
  Transaction txn_;
};

TEST_F(AccessPatternTest, PlansDistinctItemsInRange) {
  AccessPatternGenerator gen(&config_, sim::RandomStream(5));
  txn_.cls = TxnClass::kUpdater;
  for (int trial = 0; trial < 100; ++trial) {
    gen.PlanAccesses(&txn_, 500, 16, 0.25);
    ASSERT_EQ(txn_.access_items.size(), 16u);
    ASSERT_EQ(txn_.access_modes.size(), 16u);
    std::set<ItemId> unique(txn_.access_items.begin(),
                            txn_.access_items.end());
    EXPECT_EQ(unique.size(), 16u);
    for (ItemId item : txn_.access_items) EXPECT_LT(item, 500u);
  }
}

TEST_F(AccessPatternTest, QueriesNeverWrite) {
  AccessPatternGenerator gen(&config_, sim::RandomStream(6));
  txn_.cls = TxnClass::kQuery;
  for (int trial = 0; trial < 50; ++trial) {
    gen.PlanAccesses(&txn_, 100, 8, 0.9);  // high write fraction, still query
    for (AccessMode mode : txn_.access_modes) {
      EXPECT_EQ(mode, AccessMode::kRead);
    }
  }
}

TEST_F(AccessPatternTest, UpdaterWriteFrequencyMatchesFraction) {
  AccessPatternGenerator gen(&config_, sim::RandomStream(7));
  txn_.cls = TxnClass::kUpdater;
  int writes = 0, total = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    gen.PlanAccesses(&txn_, 1000, 10, 0.3);
    for (AccessMode mode : txn_.access_modes) {
      ++total;
      if (mode == AccessMode::kWrite) ++writes;
    }
  }
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.3, 0.02);
}

TEST_F(AccessPatternTest, WriteFractionZeroAndOne) {
  AccessPatternGenerator gen(&config_, sim::RandomStream(8));
  txn_.cls = TxnClass::kUpdater;
  gen.PlanAccesses(&txn_, 100, 10, 0.0);
  for (AccessMode mode : txn_.access_modes) EXPECT_EQ(mode, AccessMode::kRead);
  gen.PlanAccesses(&txn_, 100, 10, 1.0);
  for (AccessMode mode : txn_.access_modes) EXPECT_EQ(mode, AccessMode::kWrite);
}

TEST_F(AccessPatternTest, UniformCoverageOverDatabase) {
  // No hot spots: every granule should be touched at a similar rate.
  AccessPatternGenerator gen(&config_, sim::RandomStream(9));
  txn_.cls = TxnClass::kQuery;
  const uint32_t db_size = 50;
  std::vector<int> counts(db_size, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    gen.PlanAccesses(&txn_, db_size, 5, 0.0);
    for (ItemId item : txn_.access_items) ++counts[item];
  }
  const double expected = trials * 5.0 / db_size;
  for (uint32_t i = 0; i < db_size; ++i) {
    EXPECT_NEAR(counts[i] / expected, 1.0, 0.08) << "granule " << i;
  }
}

TEST_F(AccessPatternTest, HotspotSkewsAccesses) {
  config_.hotspot_access_prob = 0.8;
  config_.hotspot_size_fraction = 0.1;
  AccessPatternGenerator gen(&config_, sim::RandomStream(10));
  txn_.cls = TxnClass::kQuery;
  const uint32_t db_size = 1000;  // hot region = first 100 items
  int hot = 0, total = 0;
  for (int t = 0; t < 2000; ++t) {
    gen.PlanAccesses(&txn_, db_size, 8, 0.0);
    for (ItemId item : txn_.access_items) {
      ++total;
      if (item < 100) ++hot;
    }
  }
  EXPECT_NEAR(static_cast<double>(hot) / total, 0.8, 0.05);
}

TEST_F(AccessPatternTest, HotspotStillDistinct) {
  config_.hotspot_access_prob = 0.9;
  config_.hotspot_size_fraction = 0.05;
  AccessPatternGenerator gen(&config_, sim::RandomStream(11));
  txn_.cls = TxnClass::kUpdater;
  for (int t = 0; t < 200; ++t) {
    gen.PlanAccesses(&txn_, 400, 12, 0.5);
    std::set<ItemId> unique(txn_.access_items.begin(),
                            txn_.access_items.end());
    EXPECT_EQ(unique.size(), 12u);
  }
}

TEST(TransactionTest, ResetAttemptClearsPerAttemptState) {
  Transaction txn;
  txn.access_items = {1, 2, 3};
  txn.access_modes = {AccessMode::kRead, AccessMode::kWrite, AccessMode::kRead};
  txn.read_set = {1, 2};
  txn.write_set = {2};
  txn.held_locks = {1};
  txn.blocked_on = 2;
  txn.attempt_cpu = 0.5;
  txn.phase = 7;
  txn.ResetAttempt();
  EXPECT_TRUE(txn.access_items.empty());
  EXPECT_TRUE(txn.access_modes.empty());
  EXPECT_TRUE(txn.read_set.empty());
  EXPECT_TRUE(txn.write_set.empty());
  EXPECT_TRUE(txn.held_locks.empty());
  EXPECT_EQ(txn.blocked_on, -1);
  EXPECT_EQ(txn.attempt_cpu, 0.0);
  EXPECT_EQ(txn.phase, 0);
}

}  // namespace
}  // namespace alc::db
