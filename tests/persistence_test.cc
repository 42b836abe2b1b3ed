// Mass-storage behaviour: instance serialisation round-trips, correctness
// under tiny buffer pools (heavy eviction), lazy out-of-date state
// surviving eviction, clustering reorganisation preserving content,
// reducing I/O and filling its blocks, and the in-memory class directory
// answering class lookups without I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "core/database.h"
#include "core/instance.h"

namespace cactis::core {
namespace {

TEST(InstanceSerializationTest, RoundTripsAllState) {
  schema::Catalog cat;
  schema::ClassBuilder b(&cat, "thing");
  b.Port("peers", "link", schema::Side::kPlug);
  b.Intrinsic("name", ValueType::kString);
  b.Derived("shadow", ValueType::kInt, "1 + 1");
  ASSERT_TRUE(b.Build().ok());
  const schema::ObjectClass* cls = cat.FindClass("thing");

  Instance inst = Instance::Create(InstanceId(7), *cls);
  inst.attrs()[0].value = Value::String("cactis");
  inst.attrs()[1].value = Value::Int(2);
  inst.attrs()[1].out_of_date = false;
  inst.attrs()[1].subscribed = true;
  inst.ports()[0].push_back(EdgeRecord{EdgeId(3), InstanceId(9), 4});

  auto back = Instance::Deserialize(inst.Serialize(), cat);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->id(), InstanceId(7));
  EXPECT_EQ(back->class_id(), cls->id());
  EXPECT_EQ(back->attrs()[0].value, Value::String("cactis"));
  EXPECT_EQ(back->attrs()[1].value, Value::Int(2));
  EXPECT_FALSE(back->attrs()[1].out_of_date);
  EXPECT_TRUE(back->attrs()[1].subscribed);
  ASSERT_EQ(back->ports()[0].size(), 1u);
  EXPECT_EQ(back->ports()[0][0].peer, InstanceId(9));
  EXPECT_EQ(back->ports()[0][0].peer_port, 4u);
  EXPECT_EQ(back->ports()[0][0].id, EdgeId(3));
}

TEST(InstanceSerializationTest, DeserializeMigratesToExtendedClass) {
  schema::Catalog cat;
  schema::ClassBuilder b(&cat, "thing");
  b.Intrinsic("x", ValueType::kInt);
  ASSERT_TRUE(b.Build().ok());
  std::string payload =
      Instance::Create(InstanceId(1), *cat.FindClass("thing")).Serialize();

  // Extend the class after serialisation: old records must grow on load.
  ASSERT_TRUE(
      cat.ExtendClassWithDerived("thing", "y", ValueType::kInt, "x + 1").ok());
  auto inst = Instance::Deserialize(payload, cat);
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(inst->attrs().size(), 2u);
  EXPECT_TRUE(inst->attrs()[1].out_of_date);  // new derived slot
}

const char* kGraphSchema = R"(
  object class cell is
    relationships
      prev : chain multi socket;
      next : chain multi plug;
    attributes
      base : int;
      acc  : int;
    rules
      acc = begin
        t : int;
        t = base;
        for each p related to prev do
          t = t + p.acc;
        end;
        return t;
      end;
  end object;
)";

TEST(PersistenceTest, CorrectUnderTinyBufferPool) {
  DatabaseOptions opts;
  opts.buffer_capacity = 2;  // brutal eviction pressure
  opts.block_size = 512;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());

  std::vector<InstanceId> ids;
  for (int i = 0; i < 60; ++i) {
    auto id = *db.Create("cell");
    ids.push_back(id);
    ASSERT_TRUE(db.Set(id, "base", Value::Int(i)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  EXPECT_GT(db.disk_stats().reads, 0u);  // evictions really happened
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(59 * 60 / 2));

  // Update in the middle and re-read; values flow across block faults.
  ASSERT_TRUE(db.Set(ids[30], "base", Value::Int(1000)).ok());
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(59 * 60 / 2 - 30 + 1000));
}

TEST(PersistenceTest, OutOfDateMarksSurviveEviction) {
  DatabaseOptions opts;
  opts.buffer_capacity = 2;
  opts.block_size = 512;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());

  std::vector<InstanceId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = *db.Create("cell");
    ids.push_back(id);
    ASSERT_TRUE(db.Set(id, "base", Value::Int(1)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  ASSERT_TRUE(db.Peek(ids.back(), "acc").ok());
  ASSERT_TRUE(db.Set(ids[0], "base", Value::Int(100)).ok());  // marks chain
  // Churn the pool so marked instances are evicted and reloaded.
  for (int round = 0; round < 3; ++round) {
    for (auto id : ids) ASSERT_TRUE(db.Peek(id, "base").ok());
  }
  // The lazily-deferred recomputation still happens on demand.
  EXPECT_EQ(*db.Peek(ids.back(), "acc"), Value::Int(119));
}

TEST(PersistenceTest, FlushThenColdReads) {
  DatabaseOptions opts;
  opts.buffer_capacity = 8;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
  auto id = *db.Create("cell");
  ASSERT_TRUE(db.Set(id, "base", Value::Int(11)).ok());
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(*db.Get(id, "base"), Value::Int(11));
}

TEST(PersistenceTest, ReorganizePreservesContent) {
  DatabaseOptions opts;
  opts.buffer_capacity = 4;
  opts.block_size = 512;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
  std::vector<InstanceId> ids;
  for (int i = 0; i < 40; ++i) {
    auto id = *db.Create("cell");
    ids.push_back(id);
    ASSERT_TRUE(db.Set(id, "base", Value::Int(i)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }
  // Generate usage so clustering has statistics.
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(39 * 40 / 2));
  ASSERT_TRUE(db.Reorganize().ok());
  // Everything still there and consistent.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(*db.Peek(ids[i], "base"), Value::Int(i));
  }
  ASSERT_TRUE(db.Set(ids[0], "base", Value::Int(500)).ok());
  EXPECT_EQ(*db.Get(ids.back(), "acc"), Value::Int(39 * 40 / 2 + 500));
}

TEST(PersistenceTest, ReorganizeImprovesChainLocality) {
  // Instances created in an interleaved order (poor natural locality),
  // then clustered by usage: a sequential walk needs fewer block reads.
  DatabaseOptions opts;
  opts.buffer_capacity = 2;
  opts.block_size = 1024;
  Database db(opts);
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());

  constexpr int kN = 64;
  std::vector<InstanceId> ids(kN);
  // Create in bit-reversed-ish order so chain neighbours land on
  // different blocks.
  std::vector<int> order;
  for (int i = 0; i < kN; i += 2) order.push_back(i);
  for (int i = 1; i < kN; i += 2) order.push_back(i);
  for (int pos : order) ids[pos] = *db.Create("cell");
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(db.Set(ids[i], "base", Value::Int(1)).ok());
    if (i > 0) {
      ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
    }
  }

  auto walk = [&] {
    uint64_t before = db.disk_stats().reads;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < kN; ++i) {
        EXPECT_TRUE(db.Peek(ids[i], "base").ok());
      }
    }
    return db.disk_stats().reads - before;
  };

  uint64_t cold = walk();
  // Teach the clustering which relationships are hot.
  ASSERT_TRUE(db.Peek(ids.back(), "acc").ok());
  ASSERT_TRUE(db.Reorganize().ok());
  uint64_t clustered = walk();
  EXPECT_LT(clustered, cold) << "clustered=" << clustered
                             << " cold=" << cold;
}

TEST(PersistenceTest, ReorganizeYieldsOneBlockPerPlacementIndex) {
  // The packer must size blocks by the bytes a block really holds (the
  // checksum frame excluded): a cluster it believes fits would otherwise
  // spill one record into an extra block. No record here is oversized,
  // so every placement index must be exactly one block, at every
  // geometry.
  for (size_t block_size = 256; block_size <= 768; block_size += 8) {
    DatabaseOptions opts;
    opts.block_size = block_size;
    Database db(opts);
    ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
    std::vector<InstanceId> ids;
    for (int i = 0; i < 40; ++i) {
      ids.push_back(*db.Create("cell"));
      ASSERT_TRUE(db.Set(ids[i], "base", Value::Int(i)).ok());
      if (i > 0) {
        ASSERT_TRUE(db.Connect(ids[i], "prev", ids[i - 1], "next").ok());
      }
    }
    ASSERT_TRUE(db.Get(ids.back(), "acc").ok());
    ASSERT_TRUE(db.Reorganize().ok());
    EXPECT_EQ(db.cluster_stats().blocks_produced,
              db.cluster_stats().clusters_produced)
        << "block_size " << block_size;
  }
}

TEST(PersistenceTest, ReorganizeFillsBlocksOnLayeredDag) {
  // 5 layers of 512 cells, each cell summing 3 random cells of the layer
  // below, larger than the default 64-block pool. Clusters share blocks,
  // so the reorganised database is nearly full.
  constexpr int kDepth = 5, kWidth = 512, kFanIn = 3;
  Database db;
  ASSERT_TRUE(db.LoadSchema(kGraphSchema).ok());
  std::vector<InstanceId> ids;
  {
    auto t = db.Begin();
    for (int i = 0; i < kDepth * kWidth; ++i) {
      ids.push_back(*t->Create("cell"));
      ASSERT_TRUE(t->Set(ids.back(), "base", Value::Int(1)).ok());
    }
    ASSERT_TRUE(t->Commit().ok());
  }
  Rng rng(1);
  for (int layer = 1; layer < kDepth; ++layer) {
    auto t = db.Begin();
    for (int pos = 0; pos < kWidth; ++pos) {
      std::vector<int> preds;
      while (static_cast<int>(preds.size()) < kFanIn) {
        int p = (layer - 1) * kWidth + static_cast<int>(rng.Uniform(kWidth));
        if (std::find(preds.begin(), preds.end(), p) != preds.end()) continue;
        preds.push_back(p);
        ASSERT_TRUE(
            t->Connect(ids[layer * kWidth + pos], "prev", ids[p], "next").ok());
      }
    }
    ASSERT_TRUE(t->Commit().ok());
  }
  for (int pos = 0; pos < kWidth; ++pos) {
    ASSERT_TRUE(db.Get(ids[(kDepth - 1) * kWidth + pos], "acc").ok());
  }
  ASSERT_TRUE(db.Reorganize().ok());
  const ClusterStats& cs = db.cluster_stats();
  EXPECT_GE(cs.fill_factor, 0.9) << "blocks " << cs.blocks_produced;
  EXPECT_EQ(cs.blocks_produced, cs.clusters_produced);
  EXPECT_EQ(cs.instances_placed, static_cast<uint64_t>(kDepth * kWidth));
}

const char* kTwoClassSchema = R"(
  object class cell is
    attributes
      base : int;
  end object;
  object class tag is
    attributes
      label : string;
  end object;
)";

// Writes every block back and drops it from the buffer pool, so the next
// touch of any instance faults its block from disk.
void EvictEverything(Database* db) {
  ASSERT_TRUE(db->Flush().ok());
  for (BlockId b : db->buffer_pool()->ResidentBlockIds()) {
    db->buffer_pool()->Discard(b);
  }
}

// The class directory agrees with every stored record: a live instance's
// ClassOf is the class in its record, a dead one's is NotFound. The
// directory is consulted first, with every block evicted, and must not
// read the disk.
void ExpectDirectoryMatchesRecords(Database* db,
                                   const std::map<InstanceId, bool>& live) {
  EvictEverything(db);
  const uint64_t reads_before = db->disk()->stats().reads;
  std::map<InstanceId, Result<ClassId>> looked_up;
  for (const auto& [id, alive] : live) looked_up.emplace(id, db->ClassOf(id));
  EXPECT_EQ(db->disk()->stats().reads, reads_before)
      << "a class lookup faulted a block";
  for (const auto& [id, alive] : live) {
    const Result<ClassId>& cls = looked_up.at(id);
    if (!alive) {
      EXPECT_TRUE(cls.status().IsNotFound()) << "instance " << id.value;
      continue;
    }
    ASSERT_TRUE(cls.ok()) << "instance " << id.value << ": " << cls.status();
    auto inst = db->FetchInstancePublic(id);
    ASSERT_TRUE(inst.ok()) << inst.status();
    EXPECT_EQ(*cls, (*inst)->class_id()) << "instance " << id.value;
  }
  EXPECT_GT(db->disk()->stats().reads, reads_before)
      << "records were still resident; the lookup was not tested cold";
}

TEST(PersistenceTest, ClassDirectoryMatchesRecordsAcrossHistory) {
  Database db;
  ASSERT_TRUE(db.LoadSchema(kTwoClassSchema).ok());
  InstanceId c = *db.Create("cell");
  InstanceId t = *db.Create("tag");
  ASSERT_TRUE(db.Set(c, "base", Value::Int(3)).ok());
  ASSERT_NO_FATAL_FAILURE(
      ExpectDirectoryMatchesRecords(&db, {{c, true}, {t, true}}));

  // Delete, then undo the delete.
  ASSERT_TRUE(db.Delete(c).ok());
  ASSERT_NO_FATAL_FAILURE(
      ExpectDirectoryMatchesRecords(&db, {{c, false}, {t, true}}));
  ASSERT_TRUE(db.UndoLast().ok());
  ASSERT_NO_FATAL_FAILURE(
      ExpectDirectoryMatchesRecords(&db, {{c, true}, {t, true}}));

  // Versions: checkout backwards undoes a create and a delete, checkout
  // forwards redoes them.
  ASSERT_TRUE(db.CreateVersion("v1").ok());
  InstanceId t2 = *db.Create("tag");
  ASSERT_TRUE(db.Delete(t).ok());
  ASSERT_TRUE(db.CreateVersion("v2").ok());
  ASSERT_NO_FATAL_FAILURE(ExpectDirectoryMatchesRecords(
      &db, {{c, true}, {t, false}, {t2, true}}));
  ASSERT_TRUE(db.CheckoutVersion("v1").ok());
  ASSERT_NO_FATAL_FAILURE(ExpectDirectoryMatchesRecords(
      &db, {{c, true}, {t, true}, {t2, false}}));
  ASSERT_TRUE(db.CheckoutVersion("v2").ok());
  ASSERT_NO_FATAL_FAILURE(ExpectDirectoryMatchesRecords(
      &db, {{c, true}, {t, false}, {t2, true}}));

  // Recovery rebuilds the directory from the journal.
  Database recovered;
  ASSERT_TRUE(recovered.LoadSchema(kTwoClassSchema).ok());
  ASSERT_TRUE(recovered.Recover(*db.disk()).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectDirectoryMatchesRecords(
      &recovered, {{c, true}, {t, false}, {t2, true}}));
}

}  // namespace
}  // namespace cactis::core
