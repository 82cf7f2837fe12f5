#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "filestore/file_ops.h"
#include "filestore/filestore.h"
#include "io/mem_env.h"
#include "ops/operation.h"
#include "recovery/instant_restore.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace llb {
namespace {

/// Instant restore: the database serves transactions while media
/// recovery proceeds underneath. These tests pin the core promises —
/// reads during restore return media-recovery-correct values (including
/// through logical-operation dependency closures), the finished image
/// matches the offline restore byte for byte, progress survives crashes
/// via the restored-bitmap, and the gates hold while restoring.

constexpr uint32_t kPartitions = 2;
constexpr uint32_t kPages = 64;
constexpr uint32_t kPagesPerFile = 2;
constexpr uint32_t kFiles = kPages / kPagesPerFile;

DbOptions RestoringDb() {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.restore_batch_pages = 8;
  return options;
}

Status WipeStable(Env* env, const std::string& db_name) {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName(db_name), kPartitions));
  for (PartitionId p = 0; p < kPartitions; ++p) {
    LLB_RETURN_IF_ERROR(stable->WipePartition(p));
  }
  return Status::OK();
}

Result<std::vector<std::string>> SnapshotStable(Env* env,
                                                const std::string& db_name) {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName(db_name), kPartitions));
  std::vector<std::string> pages;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    for (uint32_t page = 0; page < kPages; ++page) {
      PageImage image;
      LLB_RETURN_IF_ERROR(stable->ReadPage(PageId{p, page}, &image));
      pages.push_back(image.raw_string());
    }
  }
  return pages;
}

/// Opens `name` in restoring mode with every domain registered and crash
/// redo run — OpenRestoring's analogue of TestEngine::Create.
Result<std::unique_ptr<Database>> OpenRestoringDb(Env* env,
                                                  const std::string& name,
                                                  const std::string& backup) {
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                       Database::OpenRestoring(env, name, RestoringDb(),
                                               backup));
  RegisterAllOps(db->registry());
  LLB_RETURN_IF_ERROR(db->Recover());
  return db;
}

/// Seeds both partitions, takes a full + incremental chain, appends a
/// post-backup log tail (including a logical Copy so restores must chase
/// dependency closures), and shuts down with everything durable.
Status BuildBackupScenario(TestEngine* engine) {
  std::vector<std::unique_ptr<FileStore>> stores;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    stores.push_back(std::make_unique<FileStore>(engine->db(), p, 0,
                                                 kPagesPerFile, kFiles));
    for (uint32_t f = 0; f < kFiles; ++f) {
      LLB_RETURN_IF_ERROR(stores[p]->WriteValues(
          f, {static_cast<int64_t>(p) * 1000 + f, 1}));
    }
  }
  LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
  LLB_RETURN_IF_ERROR(engine->db()->Checkpoint());
  LLB_RETURN_IF_ERROR(engine->db()->TakeBackup("ir_full").status());

  std::mt19937_64 rng(23);
  for (int i = 0; i < 30; ++i) {
    uint32_t p = static_cast<uint32_t>(rng() % kPartitions);
    uint32_t f = static_cast<uint32_t>(rng() % kFiles);
    LLB_RETURN_IF_ERROR(stores[p]->WriteValues(
        f, {static_cast<int64_t>(p) * 1000 + f, 2, i}));
  }
  LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
  LLB_RETURN_IF_ERROR(
      engine->db()->TakeIncrementalBackup("ir_incr", "ir_full").status());

  // Post-backup tail: fresh source values, then a logical copy whose
  // replay reads them — the dependency a single-page restore must chase.
  // The trailing updates stay in partition 1 so they cannot overwrite the
  // copy's result.
  LLB_RETURN_IF_ERROR(stores[0]->WriteValues(2, {777, 42, 9}));
  LLB_RETURN_IF_ERROR(stores[0]->Copy(/*src=*/2, /*dst=*/5));
  for (int i = 0; i < 10; ++i) {
    uint32_t f = static_cast<uint32_t>(rng() % kFiles);
    LLB_RETURN_IF_ERROR(
        stores[1]->WriteValues(f, {1000 + f, 3}));
  }
  LLB_RETURN_IF_ERROR(engine->db()->ForceLog());
  stores.clear();
  return engine->Shutdown();
}

TEST(InstantRestoreTest, ServesCorrectValuesWhileRestoringAndMatchesOracle) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));
  ASSERT_TRUE(db->restoring());

  // First transaction before any sweeping: reads fault their pages in on
  // demand and must see the media-recovery state — including the
  // logically copied file, whose replay depends on the source file's
  // post-backup value.
  FileStore faulting(db.get(), 0, 0, kPagesPerFile, kFiles);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> copied, faulting.ReadValues(5));
  ASSERT_GE(copied.size(), 3u);
  EXPECT_EQ(copied[0], 777);
  EXPECT_EQ(copied[1], 42);
  EXPECT_EQ(copied[2], 9);

  RestoreStatus mid = db->restore_status();
  EXPECT_TRUE(mid.restoring);
  EXPECT_GT(mid.pages_restored, 0u);
  EXPECT_GT(mid.pages_faulted, 0u);
  EXPECT_LT(mid.pages_restored, mid.pages_total);
  EXPECT_GT(mid.recovery_tail, 0u);

  // New work during the restore: updates and another logical copy.
  ASSERT_OK(faulting.WriteValues(7, {5555, 1}));
  ASSERT_OK(faulting.Copy(/*src=*/7, /*dst=*/9));

  // Background sweep to completion; the last step auto-finalizes.
  uint64_t swept = 0;
  while (db->restoring()) {
    ASSERT_OK_AND_ASSIGN(uint64_t moved, db->RestoreStep());
    swept += moved;
  }
  EXPECT_GT(swept, 0u);
  RestoreStatus done = db->restore_status();
  EXPECT_FALSE(done.restoring);

  // During-restore work is visible after completion...
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> after, faulting.ReadValues(9));
  ASSERT_GE(after.size(), 2u);
  EXPECT_EQ(after[0], 5555);

  // ...and the flushed store matches the full-log oracle.
  ASSERT_OK(db->FlushAll());
  db.reset();
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<LogManager> log,
        LogManager::Open(engine->env(), Database::LogName("db")));
    OpRegistry registry;
    RegisterAllOps(&registry);
    std::unique_ptr<PageStore> oracle;
    ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                    "ir_oracle", kPartitions, &oracle));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"),
                        kPartitions));
    EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages),
              "");
  }

  // The bitmap is gone: a plain reopen works.
  ASSERT_OK(engine->Reopen());
}

TEST(InstantRestoreTest, QuiescedRestoreIsByteIdenticalToOfflineRestore) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));

  OpRegistry registry;
  RegisterAllOps(&registry);
  ASSERT_OK(WipeStable(engine->env(), "db"));
  ASSERT_OK(Database::RestoreFromBackup(engine->env(), "db", "ir_incr",
                                        registry)
                .status());
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> offline,
                       SnapshotStable(engine->env(), "db"));

  ASSERT_OK(WipeStable(engine->env(), "db"));
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    // Fault a few pages first so the image mixes fault-path and
    // sweep-path restores.
    PageImage image;
    ASSERT_OK(db->ReadPage(PageId{0, 3}, &image));
    ASSERT_OK(db->ReadPage(PageId{1, 17}, &image));
    ASSERT_OK(db->FinishRestore());
    EXPECT_FALSE(db->restoring());
    // Idempotent when already finished.
    ASSERT_OK(db->FinishRestore());
    ASSERT_OK_AND_ASSIGN(uint64_t moved, db->RestoreStep());
    EXPECT_EQ(moved, 0u);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> instant,
                       SnapshotStable(engine->env(), "db"));
  EXPECT_EQ(instant, offline)
      << "instant restore image differs from offline restore";
}

TEST(InstantRestoreTest, CrashMidRestoreResumesFromBitmap) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    // Partial progress: some faults, one sweep step, then "crash".
    PageImage image;
    ASSERT_OK(db->ReadPage(PageId{0, 11}, &image));
    ASSERT_OK(db->ReadPage(PageId{1, 30}, &image));
    ASSERT_OK_AND_ASSIGN(uint64_t moved, db->RestoreStep());
    EXPECT_GT(moved, 0u);
    ASSERT_TRUE(db->restoring());
  }
  engine->env()->CrashAndRestart();

  // A plain open refuses the half-restored store.
  {
    Result<std::unique_ptr<Database>> plain =
        Database::Open(engine->env(), "db", RestoringDb());
    ASSERT_FALSE(plain.ok());
    EXPECT_TRUE(plain.status().IsFailedPrecondition())
        << plain.status().ToString();
  }

  // Resuming picks the bitmap up and finishes; the result matches the
  // full-log oracle.
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    RestoreStatus resumed = db->restore_status();
    EXPECT_TRUE(resumed.restoring);
    EXPECT_GT(resumed.pages_restored, 0u);
    ASSERT_OK(db->FinishRestore());
  }
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<LogManager> log,
        LogManager::Open(engine->env(), Database::LogName("db")));
    OpRegistry registry;
    RegisterAllOps(&registry);
    std::unique_ptr<PageStore> oracle;
    ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                    "ir_crash_oracle", kPartitions, &oracle));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"),
                        kPartitions));
    EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages),
              "");
  }
  ASSERT_OK(engine->Reopen());
}

TEST(InstantRestoreTest, MutatingGatesHoldWhileRestoring) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));
  EXPECT_TRUE(db->TakeBackup("nope").status().IsFailedPrecondition());
  EXPECT_TRUE(db->TakeIncrementalBackup("nope", "ir_full")
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(db->Checkpoint().IsFailedPrecondition());
  EXPECT_TRUE(db->TruncateLog(kInvalidLsn).IsFailedPrecondition());
  EXPECT_TRUE(db->ScrubBackup("ir_full").status().IsFailedPrecondition());

  // Transactions, reads and flushes are the whole point — all allowed.
  FileStore store(db.get(), 0, 0, kPagesPerFile, kFiles);
  ASSERT_OK(store.WriteValues(1, {1, 2, 3}));
  ASSERT_OK(db->FlushAll());

  ASSERT_OK(db->FinishRestore());
  EXPECT_OK(db->Checkpoint());
  EXPECT_OK(db->TakeBackup("post_restore").status());
}

TEST(InstantRestoreTest, GeometryAndArgumentValidation) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  DbOptions wrong = RestoringDb();
  wrong.pages_per_partition = kPages * 2;
  EXPECT_TRUE(Database::OpenRestoring(engine->env(), "db", wrong, "ir_incr")
                  .status()
                  .IsInvalidArgument());

  DbOptions standby = RestoringDb();
  standby.standby = true;
  EXPECT_TRUE(
      Database::OpenRestoring(engine->env(), "db", standby, "ir_incr")
          .status()
          .IsInvalidArgument());

  EXPECT_TRUE(Database::OpenRestoring(engine->env(), "db", RestoringDb(), "")
                  .status()
                  .IsInvalidArgument());

  EXPECT_FALSE(Database::OpenRestoring(engine->env(), "db", RestoringDb(),
                                       "no_such_backup")
                   .ok());
}

TEST(InstantRestoreTest, OfflineRestoreSupersedesUnfinishedInstantRestore) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    PageImage image;
    ASSERT_OK(db->ReadPage(PageId{0, 0}, &image));
    // Abandon mid-restore.
  }
  OpRegistry registry;
  RegisterAllOps(&registry);
  ASSERT_OK(Database::RestoreFromBackup(engine->env(), "db", "ir_incr",
                                        registry)
                .status());
  // The full offline restore removed the bitmap: plain opens work again.
  ASSERT_OK(engine->Reopen());
}

TEST(InstantRestoreTest, ConcurrentFaultsRaceTheBackgroundSweep) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));

  // Reader threads hammer random pages (each read faults its page in on
  // first touch) while the main thread drives sweep steps — the
  // fault-vs-sweep race the pause hook arbitrates.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&db, &failed, t] {
      std::mt19937_64 rng(100 + t);
      for (int i = 0; i < 200; ++i) {
        PageId id{static_cast<PartitionId>(rng() % kPartitions),
                  static_cast<uint32_t>(rng() % kPages)};
        PageImage image;
        if (!db->ReadPage(id, &image).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  while (db->restoring()) {
    Result<uint64_t> moved = db->RestoreStep();
    if (!moved.ok()) {
      failed.store(true);
      break;
    }
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(db->restoring());

  ASSERT_OK(db->FlushAll());
  db.reset();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<LogManager> log,
      LogManager::Open(engine->env(), Database::LogName("db")));
  OpRegistry registry;
  RegisterAllOps(&registry);
  std::unique_ptr<PageStore> oracle;
  ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                  "ir_race_oracle", kPartitions, &oracle));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(engine->env(), Database::StableName("db"), kPartitions));
  EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages), "");
}


// ---------- per-page chains: the closure walk against its model ----------

/// The whole-slice fixpoint the chain walk replaced, kept as the model:
/// pass over the slice until the closure stops growing, then filter the
/// whole slice for identity seeds (newest per page) and replay records.
ClosurePlan WholeSliceFixpoint(const std::vector<LogRecord>& slice,
                               const std::vector<PageId>& seeds) {
  std::set<PageId> closure(seeds.begin(), seeds.end());
  auto touches = [&closure](const LogRecord& rec) {
    for (const PageId& id : rec.writeset) {
      if (closure.count(id) != 0) return true;
    }
    return false;
  };
  bool grew = true;
  while (grew) {
    grew = false;
    for (auto it = slice.rbegin(); it != slice.rend(); ++it) {
      if (!touches(*it)) continue;
      for (const std::vector<PageId>* set : {&it->readset, &it->writeset}) {
        for (const PageId& id : *set) {
          if (closure.insert(id).second) grew = true;
        }
      }
    }
  }
  ClosurePlan plan;
  plan.pages.assign(closure.begin(), closure.end());
  std::map<PageId, size_t> newest_identity;
  for (size_t pos = 0; pos < slice.size(); ++pos) {
    const LogRecord& rec = slice[pos];
    if (rec.IsIdentityWrite()) {
      if (rec.writeset.size() == 1 && closure.count(rec.writeset[0]) != 0) {
        auto [it, fresh] = newest_identity.emplace(rec.writeset[0], pos);
        if (!fresh && rec.lsn >= slice[it->second].lsn) it->second = pos;
      }
    } else if (touches(rec)) {
      plan.replay.push_back(pos);
    }
  }
  for (const auto& [id, pos] : newest_identity) {
    plan.identity_seeds.push_back(pos);
  }
  return plan;
}

/// A random slice over partitions x pages mixing single-page physical,
/// physiological and identity writes with multi-page logical records
/// (file Copy/Sort, B-tree MovRec) and in-place multi-page transforms.
/// Records only write the lower three quarters of each partition, so
/// the top quarter holds pages no record writes.
std::vector<LogRecord> RandomSlice(std::mt19937_64& rng, uint32_t partitions,
                                   uint32_t pages, size_t n) {
  const uint32_t written = pages * 3 / 4;
  std::vector<LogRecord> slice;
  for (size_t i = 0; i < n; ++i) {
    LogRecord rec;
    rec.lsn = 100 + i;
    const PartitionId p = static_cast<PartitionId>(rng() % partitions);
    auto page = [&](uint32_t bound) {
      return PageId{p, static_cast<uint32_t>(rng() % bound)};
    };
    switch (rng() % 8) {
      case 0:
      case 1:
        rec.op_code = kOpPhysicalWrite;
        rec.writeset = {page(written)};
        break;
      case 2:
        rec.op_code = kOpIdentityWrite;
        rec.writeset = {page(written)};
        break;
      case 3:
        rec.op_code = kOpBtreeInsert;
        rec.writeset = {page(written)};
        rec.readset = rec.writeset;
        break;
      case 4:
      case 5: {
        rec.op_code = rng() % 2 == 0 ? kOpFileCopy : kOpFileSort;
        const uint32_t width = 1 + static_cast<uint32_t>(rng() % 3);
        for (uint32_t k = 0; k < width; ++k) {
          rec.readset.push_back(page(pages));
          rec.writeset.push_back(page(written));
        }
        break;
      }
      case 6:
        rec.op_code = kOpBtreeMovRec;
        rec.readset = {page(pages)};
        rec.writeset = {page(written)};
        break;
      default:
        rec.op_code = kOpFileTransform;
        rec.writeset = {page(written), page(written)};
        rec.readset = rec.writeset;
        break;
    }
    slice.push_back(std::move(rec));
  }
  return slice;
}

void ExpectSamePlan(const ClosurePlan& got, const ClosurePlan& want) {
  EXPECT_EQ(got.pages, want.pages);
  EXPECT_EQ(got.identity_seeds, want.identity_seeds);
  EXPECT_EQ(got.replay, want.replay);
}

TEST(InstantRestoreTest, ChainWalkMatchesWholeSliceFixpoint) {
  constexpr uint32_t kModelPartitions = 2;
  constexpr uint32_t kModelPages = 48;
  constexpr uint32_t kStepPages = 8;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(Numbered("seed ", static_cast<int64_t>(seed)));
    std::mt19937_64 rng(seed);
    // Short slices keep most closures small; long ones knit partitions
    // into large dependency webs.
    const size_t n = seed % 3 == 0 ? 400 : 6 + rng() % 40;
    std::vector<LogRecord> slice =
        RandomSlice(rng, kModelPartitions, kModelPages, n);
    ASSERT_OK_AND_ASSIGN(
        PageChains chains,
        PageChains::Build(slice, kModelPartitions, kModelPages));

    // Single-page faults, on every page.
    for (PartitionId p = 0; p < kModelPartitions; ++p) {
      for (uint32_t page = 0; page < kModelPages; ++page) {
        std::vector<PageId> seeds = {PageId{p, page}};
        ExpectSamePlan(PlanClosure(slice, chains, seeds),
                       WholeSliceFixpoint(slice, seeds));
      }
    }

    // Step-sized seed sets, planned the way the sweep plans them: the
    // next kStepPages unrestored pages, then mark their closure restored.
    std::vector<bool> restored(kModelPartitions * kModelPages, false);
    for (;;) {
      std::vector<PageId> seeds;
      for (uint32_t pos = 0; pos < restored.size() && seeds.size() < kStepPages;
           ++pos) {
        if (!restored[pos]) {
          seeds.push_back(PageId{pos / kModelPages, pos % kModelPages});
        }
      }
      if (seeds.empty()) break;
      ClosurePlan plan = PlanClosure(slice, chains, seeds);
      ExpectSamePlan(plan, WholeSliceFixpoint(slice, seeds));
      for (const PageId& id : plan.pages) {
        restored[chains.Index(id)] = true;
      }
    }
  }
}

// ---------- replay work is the faulted page's history ----------

TEST(InstantRestoreTest, FaultReplaysOnlyTheFaultedPagesRecords) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  auto write = [&engine](const PageId& id, int64_t v) {
    PageImage image;
    image.SetPayload(Slice(Numbered("v", v)));
    LogRecord rec = MakePhysicalWrite(id, image);
    return engine->db()->Execute(&rec);
  };
  for (uint32_t page = 0; page < kPages; ++page) {
    ASSERT_OK(write(PageId{0, page}, page));
  }
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->db()->Checkpoint());
  ASSERT_OK(engine->db()->TakeBackup("rr_full").status());

  // n = 120 slice records, k = 3 of them write the page faulted below.
  constexpr PageId kFaulted{0, 1};
  constexpr uint64_t kWriters = 3;
  uint64_t appended = 0;
  for (int i = 0; i < 120; ++i) {
    PageId id = i % 40 == 0 ? kFaulted
                            : PageId{static_cast<PartitionId>(i % 2),
                                     static_cast<uint32_t>(2 + i % 50)};
    ASSERT_OK(write(id, 1000 + i));
    ++appended;
  }
  ASSERT_OK(engine->db()->ForceLog());
  ASSERT_OK(engine->Shutdown());
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "rr_full"));
  RestoreStatus before = db->restore_status();
  EXPECT_GE(before.slice_records, appended);
  EXPECT_EQ(before.records_replayed, 0u);

  PageImage image;
  ASSERT_OK(db->ReadPage(kFaulted, &image));
  RestoreStatus after = db->restore_status();
  EXPECT_EQ(after.pages_faulted, 1u);
  EXPECT_EQ(after.records_replayed, kWriters);
  EXPECT_EQ(image.payload().ToString().substr(0, 6),
            std::string("v1080\0", 6));

  // A page no slice record writes replays nothing.
  ASSERT_OK(db->ReadPage(PageId{1, kPages - 1}, &image));
  EXPECT_EQ(db->restore_status().records_replayed, kWriters);

  // The sweep replays the rest, and the image still matches the oracle.
  ASSERT_OK(db->FinishRestore());
  ASSERT_OK(db->FlushAll());
  db.reset();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<LogManager> log,
      LogManager::Open(engine->env(), Database::LogName("db")));
  OpRegistry registry;
  RegisterAllOps(&registry);
  std::unique_ptr<PageStore> oracle;
  ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry, "rr_oracle",
                                  kPartitions, &oracle));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(engine->env(), Database::StableName("db"), kPartitions));
  EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages), "");
}

// ---------- pages outside the backup geometry ----------

constexpr uint32_t kSmallPages = 16;

DbOptions SmallDb() {
  DbOptions options = RestoringDb();
  options.pages_per_partition = kSmallPages;
  return options;
}

PageImage ValueImage(const std::string& value) {
  PageImage image;
  image.SetPayload(Slice(value));
  return image;
}

TEST(InstantRestoreTest, ExecuteRejectsPagesOutsideTheGeometry) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(SmallDb()));
  Database* db = engine->db();
  LogRecord kept = MakePhysicalWrite(PageId{1, 3}, ValueImage("kept"));
  ASSERT_OK(db->Execute(&kept));
  // Page 19 of partition 0 has the bitmap index of page (1,3).
  LogRecord beyond = MakePhysicalWrite(PageId{0, 19}, ValueImage("beyond"));
  EXPECT_TRUE(db->Execute(&beyond).IsInvalidArgument());
  LogRecord bad_partition =
      MakePhysicalWrite(PageId{kPartitions, 0}, ValueImage("nowhere"));
  EXPECT_TRUE(db->Execute(&bad_partition).IsInvalidArgument());
  ASSERT_OK(db->FlushAll());
  ASSERT_OK(db->Checkpoint());
  ASSERT_OK(db->TakeBackup("geo_full").status());
  LogRecord copy = MakeFileCopy({PageId{0, 19}}, {PageId{0, 2}});
  EXPECT_TRUE(db->Execute(&copy).IsInvalidArgument());
  ASSERT_OK(db->ForceLog());
  ASSERT_OK(engine->Shutdown());
  ASSERT_OK(WipeStable(engine->env(), "db"));

  // Faulting (0,2) before (1,3) must not mark (1,3) restored.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> restoring,
                       Database::OpenRestoring(engine->env(), "db", SmallDb(),
                                               "geo_full"));
  RegisterAllOps(restoring->registry());
  ASSERT_OK(restoring->Recover());
  PageImage image;
  ASSERT_OK(restoring->ReadPage(PageId{0, 2}, &image));
  ASSERT_OK(restoring->ReadPage(PageId{1, 3}, &image));
  EXPECT_EQ(image.payload().ToString().substr(0, 4), "kept");
}

TEST(InstantRestoreTest, SliceRecordOutsideTheGeometryIsCorruption) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(SmallDb()));
  LogRecord kept = MakePhysicalWrite(PageId{1, 3}, ValueImage("kept"));
  ASSERT_OK(engine->db()->Execute(&kept));
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->db()->Checkpoint());
  ASSERT_OK(engine->db()->TakeBackup("geo_full").status());
  ASSERT_OK(engine->Shutdown());
  {
    // A log written by something that skipped Execute's geometry check.
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<LogManager> log,
        LogManager::Open(engine->env(), Database::LogName("db")));
    LogRecord copy = MakeFileCopy({PageId{0, 19}}, {PageId{0, 2}});
    log->Append(&copy);
    ASSERT_OK(log->Force());
  }
  ASSERT_OK(WipeStable(engine->env(), "db"));
  Result<std::unique_ptr<Database>> restoring = Database::OpenRestoring(
      engine->env(), "db", SmallDb(), "geo_full");
  ASSERT_FALSE(restoring.ok());
  EXPECT_TRUE(restoring.status().IsCorruption())
      << restoring.status().ToString();
}

}  // namespace
}  // namespace llb
