// Unit tests for the storage substrate: simulated disk, block images,
// buffer pool (LRU, listeners, write-back), record store (placement,
// relocation, bulk re-placement).

#include <gtest/gtest.h>

#include "storage/block_image.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"
#include "storage/simulated_disk.h"

namespace cactis::storage {
namespace {

TEST(SimulatedDiskTest, AllocateReadWriteFree) {
  SimulatedDisk disk(128);
  BlockId b = disk.Allocate();
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(disk.IsAllocated(b));
  ASSERT_TRUE(disk.Write(b, "hello").ok());
  auto content = disk.Read(b);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
  ASSERT_TRUE(disk.Free(b).ok());
  EXPECT_FALSE(disk.IsAllocated(b));
  EXPECT_FALSE(disk.Read(b).ok());
}

TEST(SimulatedDiskTest, CountersTrackOperations) {
  SimulatedDisk disk(128);
  BlockId b = disk.Allocate();
  (void)disk.Write(b, "x");
  (void)disk.Read(b);
  (void)disk.Read(b);
  EXPECT_EQ(disk.stats().allocations, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().reads, 2u);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().reads, 0u);
}

TEST(SimulatedDiskTest, OversizeWriteRejected) {
  SimulatedDisk disk(8);
  BlockId b = disk.Allocate();
  EXPECT_EQ(disk.Write(b, "123456789").code(), StatusCode::kOutOfRange);
}

TEST(SimulatedDiskTest, FreeListRecyclesBlocks) {
  SimulatedDisk disk(128);
  BlockId a = disk.Allocate();
  ASSERT_TRUE(disk.Free(a).ok());
  BlockId b = disk.Allocate();
  EXPECT_EQ(a, b);  // recycled
}

TEST(BlockImageTest, PutGetEraseAccounting) {
  BlockImage img;
  img.Put(InstanceId(1), "aaaa");
  img.Put(InstanceId(2), "bb");
  EXPECT_EQ(img.record_count(), 2u);
  EXPECT_EQ(*img.View(InstanceId(1)), "aaaa");
  size_t before = img.encoded_size();
  img.Put(InstanceId(1), "a");  // shrink in place
  EXPECT_LT(img.encoded_size(), before);
  ASSERT_TRUE(img.Erase(InstanceId(2)).ok());
  EXPECT_FALSE(img.View(InstanceId(2)).ok());
}

TEST(BlockImageTest, EncodeDecodeRoundTrip) {
  BlockImage img;
  img.Put(InstanceId(42), std::string("payload\0with null", 17));
  img.Put(InstanceId(7), "");
  std::string bytes(img.Encode());
  auto back = BlockImage::Decode(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->record_count(), 2u);
  EXPECT_EQ(back->View(InstanceId(42))->size(), 17u);
  EXPECT_EQ(bytes.size(), img.encoded_size());
}

// The resident image is the block's on-disk encoding. This sequence —
// out-of-order inserts, a longer and a shorter replace, an erase, and a
// same-size overwrite — must leave exactly the bytes the original
// map-of-strings image encoded: count, then (id, length, bytes) records
// in ascending id order.
TEST(BlockImageTest, EncodingMatchesGoldenBytes) {
  BlockImage img;
  img.Put(InstanceId(5), "eeee");
  img.Put(InstanceId(2), "bb");
  img.Put(InstanceId(9), "nine");
  img.Put(InstanceId(2), "bbbbbb");  // longer replace
  img.Put(InstanceId(5), "e");       // shorter replace
  ASSERT_TRUE(img.Erase(InstanceId(9)).ok());
  img.Put(InstanceId(7), "sv");
  img.Put(InstanceId(5), "E");  // same size: overwritten in place
  const std::string golden(
      "\x03\x00\x00\x00"
      "\x02\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00"
      "bbbbbb"
      "\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
      "E"
      "\x07\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00"
      "sv",
      49);
  EXPECT_EQ(std::string(img.Encode()), golden);
  EXPECT_EQ(img.encoded_size(), golden.size());
  auto back = BlockImage::Decode(golden);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->record_count(), 3u);
  EXPECT_EQ(*back->View(InstanceId(2)), "bbbbbb");
  EXPECT_EQ(*back->View(InstanceId(7)), "sv");
}

TEST(BlockImageTest, ViewSurvivesPutToAnotherRecord) {
  BlockImage img;
  img.Put(InstanceId(1), "first");
  img.Put(InstanceId(2), "second");
  img.Put(InstanceId(3), "third");
  auto view = img.View(InstanceId(2));
  ASSERT_TRUE(view.ok());
  img.Put(InstanceId(1), "FIRST");  // same size: bytes overwritten in place
  img.Put(InstanceId(3), "THIRD");
  EXPECT_EQ(*view, "second");
  // A resize shifts the records behind it; a fresh view follows them.
  img.Put(InstanceId(1), "the first record, longer");
  EXPECT_EQ(*img.View(InstanceId(2)), "second");
  EXPECT_EQ(*img.View(InstanceId(3)), "THIRD");
  EXPECT_EQ(*img.View(InstanceId(1)), "the first record, longer");
}

TEST(BlockImageTest, DecodeRejectsMalformedPayloads) {
  BlockImage img;
  img.Put(InstanceId(1), "abc");
  img.Put(InstanceId(2), "defg");
  const std::string good(img.Encode());

  // A record count beyond what the payload holds.
  std::string overcount = good;
  overcount[0] = 3;
  EXPECT_EQ(BlockImage::Decode(overcount).status().code(),
            StatusCode::kCorruption);
  // A record whose bytes are cut short.
  EXPECT_EQ(BlockImage::Decode(good.substr(0, good.size() - 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  // A record header cut short, and a payload too short for its count.
  EXPECT_EQ(BlockImage::Decode(good.substr(0, 4 + 12 + 3 + 5))
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(BlockImage::Decode(good.substr(0, 2)).status().code(),
            StatusCode::kCorruption);
  // Bytes trailing the last record.
  EXPECT_EQ(BlockImage::Decode(good + "x").status().code(),
            StatusCode::kCorruption);
  // The intact payload, and an empty one (a never-written block), decode.
  EXPECT_TRUE(BlockImage::Decode(good).ok());
  EXPECT_EQ(BlockImage::Decode("")->record_count(), 0u);
}

TEST(BlockImageTest, FitsAccountsReplacement) {
  BlockImage img;
  size_t cap = 4 + 2 * (12 + 10);  // header + two 10-byte records
  img.Put(InstanceId(1), std::string(10, 'x'));
  EXPECT_TRUE(img.Fits(InstanceId(2), 10, cap));
  img.Put(InstanceId(2), std::string(10, 'y'));
  EXPECT_FALSE(img.Fits(InstanceId(3), 1, cap));
  // Replacing an existing record reuses its space.
  EXPECT_TRUE(img.Fits(InstanceId(1), 10, cap));
  EXPECT_FALSE(img.Fits(InstanceId(1), 11, cap));
}

class Listener : public ResidencyListener {
 public:
  void OnBlockLoaded(BlockId id) override { loaded.push_back(id); }
  void OnBlockEvicted(BlockId id) override { evicted.push_back(id); }
  std::vector<BlockId> loaded, evicted;
};

TEST(BufferPoolTest, LruEvictionOrder) {
  SimulatedDisk disk(128);
  BufferPool pool(&disk, 2);
  Listener listener;
  pool.AddListener(&listener);

  BlockId a = disk.Allocate(), b = disk.Allocate(), c = disk.Allocate();
  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Fetch(b).ok());
  ASSERT_TRUE(pool.Fetch(a).ok());  // refresh a
  ASSERT_TRUE(pool.Fetch(c).ok());  // evicts b (LRU)
  EXPECT_TRUE(pool.IsResident(a));
  EXPECT_FALSE(pool.IsResident(b));
  EXPECT_TRUE(pool.IsResident(c));
  ASSERT_EQ(listener.evicted.size(), 1u);
  EXPECT_EQ(listener.evicted[0], b);
  EXPECT_EQ(listener.loaded.size(), 3u);
}

TEST(BufferPoolTest, DirtyBlocksWriteBackOnEviction) {
  SimulatedDisk disk(128);
  BufferPool pool(&disk, 1);
  BlockId a = disk.Allocate(), b = disk.Allocate();

  auto img = pool.Fetch(a);
  ASSERT_TRUE(img.ok());
  (*img)->Put(InstanceId(5), "data");
  ASSERT_TRUE(pool.MarkDirty(a).ok());
  ASSERT_TRUE(pool.Fetch(b).ok());  // evicts a, writes it back
  EXPECT_EQ(disk.stats().writes, 1u);

  auto back = pool.Fetch(a);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*(*back)->View(InstanceId(5)), "data");
}

TEST(BufferPoolTest, CleanEvictionSkipsWrite) {
  SimulatedDisk disk(128);
  BufferPool pool(&disk, 1);
  BlockId a = disk.Allocate(), b = disk.Allocate();
  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Fetch(b).ok());
  EXPECT_EQ(disk.stats().writes, 0u);
}

TEST(BufferPoolTest, HitMissStats) {
  SimulatedDisk disk(128);
  BufferPool pool(&disk, 4);
  BlockId a = disk.Allocate();
  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Fetch(a).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(disk.stats().reads, 1u);  // only the miss touched the disk
}

TEST(BufferPoolTest, FlushAllWritesDirty) {
  SimulatedDisk disk(128);
  BufferPool pool(&disk, 4);
  BlockId a = disk.Allocate();
  auto img = pool.Fetch(a);
  (*img)->Put(InstanceId(1), "x");
  ASSERT_TRUE(pool.MarkDirty(a).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.stats().writes, 1u);
  ASSERT_TRUE(pool.FlushAll().ok());  // now clean: no extra write
  EXPECT_EQ(disk.stats().writes, 1u);
}

class RecordStoreTest : public ::testing::Test {
 protected:
  RecordStoreTest() : disk_(128), pool_(&disk_, 8), store_(&disk_, &pool_) {}
  SimulatedDisk disk_;
  BufferPool pool_;
  RecordStore store_;
};

TEST_F(RecordStoreTest, PutGetDelete) {
  ASSERT_TRUE(store_.Put(InstanceId(1), "alpha").ok());
  ASSERT_TRUE(store_.Put(InstanceId(2), "beta").ok());
  EXPECT_EQ(*store_.View(InstanceId(1)), "alpha");
  EXPECT_EQ(*store_.View(InstanceId(2)), "beta");
  EXPECT_EQ(store_.record_count(), 2u);
  ASSERT_TRUE(store_.Delete(InstanceId(1)).ok());
  EXPECT_FALSE(store_.View(InstanceId(1)).ok());
  EXPECT_FALSE(store_.Contains(InstanceId(1)));
}

TEST_F(RecordStoreTest, UpdateInPlace) {
  ASSERT_TRUE(store_.Put(InstanceId(1), "v1").ok());
  BlockId before = *store_.BlockOf(InstanceId(1));
  ASSERT_TRUE(store_.Put(InstanceId(1), "v2").ok());
  EXPECT_EQ(*store_.View(InstanceId(1)), "v2");
  EXPECT_EQ(*store_.BlockOf(InstanceId(1)), before);
}

TEST_F(RecordStoreTest, GrowthRelocatesRecord) {
  // Fill one block with two records, then grow one beyond its space.
  std::string half(40, 'a');
  ASSERT_TRUE(store_.Put(InstanceId(1), half).ok());
  ASSERT_TRUE(store_.Put(InstanceId(2), half).ok());
  BlockId b1 = *store_.BlockOf(InstanceId(1));
  ASSERT_TRUE(store_.Put(InstanceId(1), std::string(100, 'b')).ok());
  EXPECT_EQ(store_.View(InstanceId(1))->size(), 100u);
  EXPECT_NE(*store_.BlockOf(InstanceId(1)), b1);
  // Old neighbour untouched.
  EXPECT_EQ(*store_.View(InstanceId(2)), half);
}

TEST_F(RecordStoreTest, OversizeRecordRejected) {
  EXPECT_EQ(store_.Put(InstanceId(1), std::string(1000, 'x')).code(),
            StatusCode::kOutOfRange);
}

TEST_F(RecordStoreTest, EmptyBlocksAreFreed) {
  ASSERT_TRUE(store_.Put(InstanceId(1), std::string(100, 'x')).ok());
  size_t blocks = disk_.num_allocated_blocks();
  ASSERT_TRUE(store_.Delete(InstanceId(1)).ok());
  EXPECT_LT(disk_.num_allocated_blocks(), blocks);
}

TEST_F(RecordStoreTest, TouchFaultsBlockIn) {
  ASSERT_TRUE(store_.Put(InstanceId(1), "x").ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  // Force eviction by filling the pool with other blocks.
  for (int i = 2; i <= 20; ++i) {
    ASSERT_TRUE(store_.Put(InstanceId(i), std::string(100, 'y')).ok());
  }
  if (!store_.IsInstanceResident(InstanceId(1))) {
    uint64_t reads = disk_.stats().reads;
    ASSERT_TRUE(store_.Touch(InstanceId(1)).ok());
    EXPECT_EQ(disk_.stats().reads, reads + 1);
    EXPECT_TRUE(store_.IsInstanceResident(InstanceId(1)));
  }
}

TEST_F(RecordStoreTest, ApplyPlacementGroupsClusters) {
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(store_.Put(InstanceId(i), std::string(20, 'a' + i)).ok());
  }
  // Clusters: {1,3,5} and {2,4,6}.
  std::vector<std::pair<InstanceId, int>> placement;
  for (int i = 1; i <= 6; ++i) placement.emplace_back(InstanceId(i), i % 2);
  ASSERT_TRUE(store_.ApplyPlacement(placement).ok());

  EXPECT_EQ(*store_.BlockOf(InstanceId(2)), *store_.BlockOf(InstanceId(4)));
  EXPECT_EQ(*store_.BlockOf(InstanceId(1)), *store_.BlockOf(InstanceId(3)));
  EXPECT_NE(*store_.BlockOf(InstanceId(1)), *store_.BlockOf(InstanceId(2)));
  // Content preserved.
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(store_.View(InstanceId(i))->front(), static_cast<char>('a' + i));
  }
}

TEST_F(RecordStoreTest, ApplyPlacementRequiresFullCoverage) {
  ASSERT_TRUE(store_.Put(InstanceId(1), "x").ok());
  ASSERT_TRUE(store_.Put(InstanceId(2), "y").ok());
  std::vector<std::pair<InstanceId, int>> partial = {{InstanceId(1), 0}};
  EXPECT_FALSE(store_.ApplyPlacement(partial).ok());
}

TEST_F(RecordStoreTest, AllInstancesSorted) {
  for (int i : {5, 1, 3}) {
    ASSERT_TRUE(store_.Put(InstanceId(i), "x").ok());
  }
  auto all = store_.AllInstances();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], InstanceId(1));
  EXPECT_EQ(all[2], InstanceId(5));
}

}  // namespace
}  // namespace cactis::storage
