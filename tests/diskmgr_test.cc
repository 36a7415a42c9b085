// Tests for the Disk Manager: buffer-pool behaviour, the write-ahead-log rule
// at eviction, crash semantics, and recovery-path access.
#include <gtest/gtest.h>

#include <string>

#include "src/diskmgr/disk_manager.h"
#include "src/sim/scheduler.h"
#include "src/wal/stable_log.h"

namespace camelot {
namespace {

const Tid kTid{FamilyId{SiteId{1}, 1}, 0, 0};

struct Rig {
  explicit Rig(DiskConfig cfg = DiskConfig{}) : sched(1), log(sched, LogConfig{}),
                                                disk(sched, log, cfg) {}

  // Appends an update record and installs the value; returns the record LSN.
  Lsn WriteObj(const std::string& object, uint8_t value) {
    Lsn lsn;
    sched.Spawn([](Rig* rig, std::string obj, uint8_t v, Lsn* out) -> Async<void> {
      Bytes bytes(1, v);
      *out = rig->log.Append(LogRecord::Update(kTid, "srv", obj, {}, bytes));
      co_await rig->disk.Write("srv", obj, bytes, *out);
    }(this, object, value, &lsn));
    sched.RunUntilIdle();
    return lsn;
  }

  std::optional<Bytes> ReadObj(const std::string& object) {
    std::optional<Bytes> out;
    sched.Spawn([](Rig* rig, std::string obj, std::optional<Bytes>* o) -> Async<void> {
      auto v = co_await rig->disk.Read("srv", obj);
      if (v.ok()) {
        *o = *v;
      }
    }(this, object, &out));
    sched.RunUntilIdle();
    return out;
  }

  Scheduler sched;
  StableLog log;
  DiskManager disk;
};

TEST(DiskManagerTest, WriteThenReadHitsBuffer) {
  Rig rig;
  rig.WriteObj("a", 42);
  auto v = rig.ReadObj("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 42);
  EXPECT_EQ(rig.disk.counters().reads_hit, 1u);
  EXPECT_EQ(rig.disk.counters().reads_miss, 0u);
}

TEST(DiskManagerTest, MissingObjectIsNotFound) {
  Rig rig;
  EXPECT_FALSE(rig.ReadObj("ghost").has_value());
}

TEST(DiskManagerTest, ReadFaultsFromDataDisk) {
  Rig rig;
  rig.disk.RecoveryWrite("srv", "cold", {9});
  const SimTime before = rig.sched.now();
  auto v = rig.ReadObj("cold");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 9);
  EXPECT_EQ(rig.disk.counters().reads_miss, 1u);
  EXPECT_GE(rig.sched.now() - before, DiskConfig{}.disk_read_latency);
  // Second read is a hit, and free.
  const SimTime after_fault = rig.sched.now();
  rig.ReadObj("cold");
  EXPECT_EQ(rig.sched.now(), after_fault);
}

TEST(DiskManagerTest, DirtyPageStaysOffDiskUntilFlush) {
  Rig rig;
  rig.WriteObj("a", 7);
  EXPECT_FALSE(rig.disk.RecoveryRead("srv", "a").ok());
  EXPECT_EQ(rig.disk.dirty_frames(), 1u);
  rig.sched.Spawn([](DiskManager& d) -> Async<void> { co_await d.FlushAll(); }(rig.disk));
  rig.sched.RunUntilIdle();
  auto durable = rig.disk.RecoveryRead("srv", "a");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ((*durable)[0], 7);
  EXPECT_EQ(rig.disk.dirty_frames(), 0u);
}

TEST(DiskManagerTest, FlushForcesLogFirstWalRule) {
  Rig rig;
  const Lsn lsn = rig.WriteObj("a", 3);
  EXPECT_FALSE(rig.log.IsDurable(lsn));  // Update record not yet forced.
  rig.sched.Spawn([](DiskManager& d) -> Async<void> { co_await d.FlushAll(); }(rig.disk));
  rig.sched.RunUntilIdle();
  // The WAL rule forced the log up to the page LSN before the data write.
  EXPECT_TRUE(rig.log.IsDurable(lsn));
  EXPECT_EQ(rig.disk.counters().wal_forces, 1u);
}

TEST(DiskManagerTest, EvictionWritesBackAndHonorsWalRule) {
  DiskConfig cfg;
  cfg.pool_frames = 4;
  Rig rig(cfg);
  for (int i = 0; i < 8; ++i) {
    rig.WriteObj("obj" + std::to_string(i), static_cast<uint8_t>(i));
  }
  EXPECT_GT(rig.disk.counters().evictions, 0u);
  EXPECT_LE(rig.disk.buffered_frames(), 4u);
  // Early victims are durable on the data disk and re-readable.
  auto v = rig.ReadObj("obj0");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 0);
  // Every flushed page's log records were forced first.
  EXPECT_GT(rig.disk.counters().wal_forces, 0u);
}

TEST(DiskManagerTest, LruKeepsHotPagesResident) {
  DiskConfig cfg;
  cfg.pool_frames = 3;
  Rig rig(cfg);
  rig.WriteObj("hot", 1);
  for (int i = 0; i < 6; ++i) {
    rig.ReadObj("hot");  // Keep it recently used.
    rig.WriteObj("cold" + std::to_string(i), 0);
  }
  const uint64_t misses = rig.disk.counters().reads_miss;
  rig.ReadObj("hot");
  EXPECT_EQ(rig.disk.counters().reads_miss, misses);  // Still resident.
}

TEST(DiskManagerTest, CrashDropsBufferButNotDataDisk) {
  Rig rig;
  rig.WriteObj("flushed", 1);
  rig.sched.Spawn([](DiskManager& d) -> Async<void> { co_await d.FlushAll(); }(rig.disk));
  rig.sched.RunUntilIdle();
  rig.WriteObj("volatile", 2);

  rig.log.OnCrash();
  rig.disk.OnCrash();
  EXPECT_EQ(rig.disk.buffered_frames(), 0u);
  // The flushed page survives on the data disk; the buffered one is gone
  // (recovery would redo/undo it from the log).
  EXPECT_TRUE(rig.disk.RecoveryRead("srv", "flushed").ok());
  EXPECT_FALSE(rig.disk.RecoveryRead("srv", "volatile").ok());
}

TEST(DiskManagerTest, ExistsSeesBufferAndDisk) {
  Rig rig;
  rig.disk.RecoveryWrite("srv", "on_disk", {1});
  rig.WriteObj("in_buffer", 2);
  bool on_disk = false;
  bool in_buffer = false;
  bool ghost = true;
  rig.sched.Spawn([](DiskManager& d, bool* a, bool* b, bool* c) -> Async<void> {
    *a = co_await d.Exists("srv", "on_disk");
    *b = co_await d.Exists("srv", "in_buffer");
    *c = co_await d.Exists("srv", "ghost");
  }(rig.disk, &on_disk, &in_buffer, &ghost));
  rig.sched.RunUntilIdle();
  EXPECT_TRUE(on_disk);
  EXPECT_TRUE(in_buffer);
  EXPECT_FALSE(ghost);
}

// Property sweep: interleaved writes/reads/evictions/flushes never lose a
// committed (flushed) value and always serve the latest written value.
TEST(DiskManagerTest, RandomTrafficServesLatestValues) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    DiskConfig cfg;
    cfg.pool_frames = 4;
    Scheduler sched(seed);
    StableLog log(sched, LogConfig{});
    DiskManager disk(sched, log, cfg);
    Rng rng(seed * 77);
    const int n_objects = 8;
    std::vector<uint8_t> expected(n_objects, 0);

    sched.Spawn([](Scheduler&, StableLog& l, DiskManager& d, Rng* r,
                   std::vector<uint8_t>* exp) -> Async<void> {
      for (int step = 0; step < 120; ++step) {
        const int obj_index = static_cast<int>(r->NextBounded(exp->size()));
        std::string obj = "o";
        obj += std::to_string(obj_index);
        if (r->NextBool(0.5)) {
          const uint8_t value = static_cast<uint8_t>(r->Next());
          Bytes bytes(1, value);
          const Lsn lsn = l.Append(LogRecord::Update(kTid, "srv", obj, {}, bytes));
          co_await d.Write("srv", obj, bytes, lsn);
          (*exp)[static_cast<size_t>(obj_index)] = value;
        } else {
          auto v = co_await d.Read("srv", obj);
          if (v.ok()) {
            EXPECT_EQ((*v)[0], (*exp)[static_cast<size_t>(obj_index)]);
          } else {
            EXPECT_EQ((*exp)[static_cast<size_t>(obj_index)], 0);  // Never written.
          }
        }
        if (step % 40 == 39) {
          co_await d.FlushAll();
        }
      }
    }(sched, log, disk, &rng, &expected));
    sched.RunUntilIdle();
  }
}

// --- Media faults, CRC detection, repair, and the scrubber -------------------------

// Flushes every dirty page so values land on the (possibly faulty) data disk.
void FlushAll(Rig& rig) {
  rig.sched.Spawn([](Rig* r) -> Async<void> { co_await r->disk.FlushAll(); }(&rig));
  rig.sched.RunUntilIdle();
}

// Drops the buffer pool so the next read must touch the physical disk.
void DropPool(Rig& rig) { rig.disk.OnCrash(); }

TEST(DiskManagerTest, TornFlushIsDetectedOnReadNotServed) {
  DiskConfig cfg;
  cfg.faults.torn_write_probability = 1.0;  // Every physical write tears.
  Rig rig(cfg);
  rig.WriteObj("a", 7);
  FlushAll(rig);
  EXPECT_GE(rig.disk.counters().torn_writes_injected, 1u);
  DropPool(rig);
  // No repair hook registered: the CRC failure must surface as an error, the
  // garbled bytes must never be served as data.
  EXPECT_FALSE(rig.ReadObj("a").has_value());
  EXPECT_GE(rig.disk.counters().crc_failures_detected, 1u);
  EXPECT_GE(rig.disk.counters().repair_failures, 1u);
}

TEST(DiskManagerTest, RepairHookRebuildsTornPage) {
  DiskConfig cfg;
  cfg.faults.torn_write_probability = 1.0;
  Rig rig(cfg);
  rig.WriteObj("a", 7);
  FlushAll(rig);
  DropPool(rig);
  rig.disk.set_media_repair([](std::string, std::string) -> Async<Result<Bytes>> {
    co_return Bytes{7};  // Stands in for the recovery manager's redo-from-log.
  });
  auto v = rig.ReadObj("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 7);
  EXPECT_EQ(rig.disk.counters().pages_repaired, 1u);
  // The rebuilt page was re-stored with a fresh CRC: disable faults and the
  // next cold read is clean, no second repair.
  rig.disk.set_faults(StorageFaultConfig{});
  DropPool(rig);
  v = rig.ReadObj("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(rig.disk.counters().pages_repaired, 1u);
}

TEST(DiskManagerTest, BitRotDecaysAnUnrelatedResidentPage) {
  DiskConfig cfg;
  cfg.faults.bit_rot_probability = 1.0;  // Every physical write rots some page.
  Rig rig(cfg);
  rig.disk.RecoveryWrite("srv", "victim", Bytes{1, 2, 3});
  rig.WriteObj("other", 9);
  FlushAll(rig);  // The flush of "other" rots a random resident page.
  EXPECT_GE(rig.disk.counters().bit_rot_injected, 1u);
  EXPECT_GE(rig.disk.CorruptPages().size(), 1u);
}

TEST(DiskManagerTest, LatentSectorErrorSurfacesOnColdRead) {
  DiskConfig cfg;
  cfg.faults.latent_sector_error_probability = 1.0;
  Rig rig(cfg);
  rig.disk.RecoveryWrite("srv", "cold", {9});
  EXPECT_FALSE(rig.ReadObj("cold").has_value());  // Sector lost, no hook.
  EXPECT_GE(rig.disk.counters().sector_errors_injected, 1u);
  // A repair (rewrite) makes the sector readable again.
  rig.disk.set_media_repair([](std::string, std::string) -> Async<Result<Bytes>> {
    co_return Bytes{9};
  });
  auto v = rig.ReadObj("cold");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 9);
}

TEST(DiskManagerTest, WriteStallsSlowTheFlushDown) {
  DiskConfig cfg;
  cfg.faults.write_stall_probability = 1.0;
  cfg.faults.write_stall_extra = Usec(100000);
  Rig rig(cfg);
  rig.WriteObj("a", 1);
  const SimTime before = rig.sched.now();
  FlushAll(rig);
  EXPECT_GE(rig.sched.now() - before, cfg.disk_write_latency + Usec(100000));
  EXPECT_GE(rig.disk.counters().write_stalls, 1u);
}

TEST(DiskManagerTest, ScrubberFindsAndRepairsColdCorruptionThenRetires) {
  DiskConfig cfg;
  cfg.scrub_interval = Usec(50000);
  cfg.scrub_pages_per_pass = 2;
  Rig rig(cfg);
  for (int i = 0; i < 6; ++i) {
    rig.disk.RecoveryWrite("srv", "page" + std::to_string(i), {static_cast<uint8_t>(i)});
  }
  rig.disk.CorruptStoredPage("srv", "page3");
  rig.disk.set_media_repair([](std::string, std::string) -> Async<Result<Bytes>> {
    co_return Bytes{3};
  });
  rig.disk.StartScrubber();
  // RunUntilIdle returning proves the scrubber retires once the disk is clean
  // and quiet (a perpetual daemon would hang this call forever).
  rig.sched.RunUntilIdle();
  EXPECT_GE(rig.disk.counters().pages_scrubbed, 6u);
  EXPECT_EQ(rig.disk.counters().scrub_repairs, 1u);
  EXPECT_EQ(rig.disk.counters().pages_repaired, 1u);
  EXPECT_TRUE(rig.disk.CorruptPages().empty());
  auto v = rig.ReadObj("page3");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 3);
}

}  // namespace
}  // namespace camelot
