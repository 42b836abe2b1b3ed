// The delta-based version facility (paper section 3): versions name
// positions in the committed-delta history; checkout walks deltas
// backwards (undo) or forwards (redo).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "txn/version_store.h"

namespace cactis {
namespace {

TEST(VersionStoreTest, AppendCreatePosition) {
  txn::VersionStore vs;
  EXPECT_EQ(vs.position(), 0u);
  txn::TransactionDelta d1;
  d1.records.push_back(txn::DeltaRecord{});
  EXPECT_EQ(vs.Append(std::move(d1)), 1u);
  ASSERT_TRUE(vs.CreateVersion("v1").ok());
  EXPECT_EQ(*vs.PositionOf("v1"), 1u);
  EXPECT_FALSE(vs.CreateVersion("v1").ok());  // duplicate
  EXPECT_FALSE(vs.PositionOf("ghost").ok());
}

TEST(VersionStoreTest, UndoRedoDeltaLists) {
  txn::VersionStore vs;
  for (int i = 0; i < 3; ++i) {
    txn::TransactionDelta d;
    d.txn = TxnId(i + 1);
    vs.Append(std::move(d));
  }
  auto undo = *vs.DeltasToUndo(1);
  ASSERT_EQ(undo.size(), 2u);
  EXPECT_EQ(undo[0]->txn, TxnId(3));  // newest first
  EXPECT_EQ(undo[1]->txn, TxnId(2));
  vs.SetPosition(1);
  auto redo = *vs.DeltasToRedo(3);
  ASSERT_EQ(redo.size(), 2u);
  EXPECT_EQ(redo[0]->txn, TxnId(2));  // oldest first
}

TEST(VersionStoreTest, AppendAtOldPositionTruncatesRedoTail) {
  txn::VersionStore vs;
  for (int i = 0; i < 3; ++i) vs.Append(txn::TransactionDelta{});
  ASSERT_TRUE(vs.CreateVersion("tip").ok());
  vs.SetPosition(1);
  vs.Append(txn::TransactionDelta{});
  EXPECT_EQ(vs.end(), 2u);
  EXPECT_FALSE(vs.PositionOf("tip").ok());  // named a truncated point
}

TEST(VersionStoreTest, PopLastRequiresTipPosition) {
  txn::VersionStore vs;
  vs.Append(txn::TransactionDelta{});
  vs.Append(txn::TransactionDelta{});
  vs.SetPosition(1);
  EXPECT_FALSE(vs.PopLast().ok());
  vs.SetPosition(2);
  EXPECT_TRUE(vs.PopLast().ok());
  EXPECT_EQ(vs.end(), 1u);
}

// delta_bytes() is a running total kept by every call that adds or
// drops a delta; it must equal a from-scratch sum over the retained
// history after each of them.
TEST(VersionStoreTest, DeltaBytesIsTheRetainedTotal) {
  auto delta_of = [](size_t payload) {
    txn::DeltaRecord set;
    set.op = txn::DeltaOp::kSetAttr;
    set.new_value = Value::String(std::string(payload, 'x'));
    txn::TransactionDelta d;
    d.records.push_back(set);
    return d;
  };
  txn::VersionStore vs;
  auto expect_total = [&vs](const char* after) {
    uint64_t sum = 0;
    for (const txn::TransactionDelta& d : vs.history()) sum += d.ByteSize();
    EXPECT_EQ(vs.delta_bytes(), sum) << "after " << after;
  };
  for (size_t i = 1; i <= 5; ++i) vs.Append(delta_of(10 * i));
  expect_total("append");
  EXPECT_GT(vs.delta_bytes(), 0u);
  vs.SetPosition(3);
  vs.Append(delta_of(7));  // truncates positions 4 and 5
  expect_total("a truncating append");
  ASSERT_TRUE(vs.PopLast().ok());
  expect_total("pop");
  EXPECT_EQ(vs.PruneTo(2), 2u);
  expect_total("prune");
  std::vector<txn::TransactionDelta> history = {delta_of(3), delta_of(40)};
  vs.Restore(std::move(history), 4, 6, {}, 0);
  expect_total("restore");
  EXPECT_EQ(vs.end(), 6u);
}

TEST(DeltaTest, ByteSizeTracksPayload) {
  txn::DeltaRecord set;
  set.op = txn::DeltaOp::kSetAttr;
  set.old_value = Value::Int(1);
  set.new_value = Value::String(std::string(100, 'x'));
  size_t small = txn::DeltaRecord{}.ByteSize();
  EXPECT_GT(set.ByteSize(), small + 100);

  txn::TransactionDelta d;
  d.records.push_back(set);
  d.records.push_back(set);
  EXPECT_GT(d.ByteSize(), 2 * set.ByteSize());
}

const char* kSchema = R"(
  object class module is
    relationships
      imports : dep multi socket;
      exports : dep multi plug;
    attributes
      name : string;
      loc : int;
      total_loc : int;
    rules
      total_loc = begin
        t : int;
        t = loc;
        for each m related to imports do
          t = t + m.total_loc;
        end;
        return t;
      end;
  end object;
)";

using core::Database;

class DbVersionTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.LoadSchema(kSchema).ok()); }
  Database db_;
};

TEST_F(DbVersionTest, CheckoutMovesBackAndForward) {
  auto a = *db_.Create("module");
  ASSERT_TRUE(db_.Set(a, "loc", Value::Int(10)).ok());
  ASSERT_TRUE(db_.CreateVersion("v1").ok());

  ASSERT_TRUE(db_.Set(a, "loc", Value::Int(20)).ok());
  auto b = *db_.Create("module");
  ASSERT_TRUE(db_.Connect(a, "imports", b, "exports").ok());
  ASSERT_TRUE(db_.Set(b, "loc", Value::Int(5)).ok());
  ASSERT_TRUE(db_.CreateVersion("v2").ok());
  EXPECT_EQ(*db_.Get(a, "total_loc"), Value::Int(25));

  // Back to v1: b gone, loc restored, derived values recomputed.
  ASSERT_TRUE(db_.CheckoutVersion("v1").ok());
  EXPECT_EQ(*db_.Get(a, "loc"), Value::Int(10));
  EXPECT_EQ(*db_.Get(a, "total_loc"), Value::Int(10));
  EXPECT_FALSE(db_.Get(b, "loc").ok());
  EXPECT_EQ(db_.InstancesOf("module")->size(), 1u);

  // Forward again to v2: everything returns.
  ASSERT_TRUE(db_.CheckoutVersion("v2").ok());
  EXPECT_EQ(*db_.Get(a, "loc"), Value::Int(20));
  EXPECT_EQ(*db_.Get(b, "loc"), Value::Int(5));
  EXPECT_EQ(*db_.Get(a, "total_loc"), Value::Int(25));
}

TEST_F(DbVersionTest, CheckoutToCurrentPositionIsNoOp) {
  auto a = *db_.Create("module");
  (void)a;
  ASSERT_TRUE(db_.CreateVersion("here").ok());
  ASSERT_TRUE(db_.CheckoutVersion("here").ok());
  EXPECT_EQ(db_.InstancesOf("module")->size(), 1u);
}

TEST_F(DbVersionTest, CommittingAfterCheckoutTruncatesFuture) {
  auto a = *db_.Create("module");
  ASSERT_TRUE(db_.CreateVersion("v1").ok());
  ASSERT_TRUE(db_.Set(a, "loc", Value::Int(50)).ok());
  ASSERT_TRUE(db_.CreateVersion("v2").ok());

  ASSERT_TRUE(db_.CheckoutVersion("v1").ok());
  ASSERT_TRUE(db_.Set(a, "loc", Value::Int(7)).ok());  // new branch tip
  EXPECT_FALSE(db_.CheckoutVersion("v2").ok());        // truncated
  EXPECT_EQ(*db_.Get(a, "loc"), Value::Int(7));
}

TEST_F(DbVersionTest, VersionsSurviveEviction) {
  // A small buffer pool forces the restored state through real
  // serialisation; versions must still round-trip.
  core::DatabaseOptions opts;
  opts.buffer_capacity = 2;
  opts.block_size = 512;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  std::vector<InstanceId> mods;
  for (int i = 0; i < 20; ++i) {
    auto m = *db.Create("module");
    mods.push_back(m);
    ASSERT_TRUE(db.Set(m, "loc", Value::Int(i)).ok());
  }
  ASSERT_TRUE(db.CreateVersion("base").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Set(mods[i], "loc", Value::Int(100 + i)).ok());
  }
  ASSERT_TRUE(db.CheckoutVersion("base").ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*db.Get(mods[i], "loc"), Value::Int(i));
  }
}

TEST_F(DbVersionTest, VersionNamesListed) {
  ASSERT_TRUE(db_.CreateVersion("alpha").ok());
  ASSERT_TRUE(db_.CreateVersion("beta").ok());
  auto names = db_.VersionNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
}

}  // namespace
}  // namespace cactis
